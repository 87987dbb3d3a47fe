"""Model interface.

Everything distributed optimization needs from a model is a flat
parameter vector plus loss/gradient callables on (params, X, y). The
flat-vector convention keeps the communication layer model-agnostic:
GA-SGD ships gradients, MA-SGD/ADMM ship parameter vectors, k-means
ships sufficient statistics, all as 1-D numpy arrays.
"""

from __future__ import annotations

import abc

import numpy as np


class SupervisedModel(abc.ABC):
    """A differentiable model over a flat parameter vector."""

    #: Number of entries in the flat parameter vector.
    n_params: int
    #: numpy dtype of the parameter vector.
    dtype: np.dtype = np.dtype(np.float64)
    #: Does :meth:`gradient` also take W ranks stacked — params ``(W, d)``,
    #: dense X ``(W, b, d)``, y ``(W, b)`` — and return each rank's
    #: gradient bit for bit, as row ``r`` of a ``(W, d)`` array?
    stacks: bool = False

    @abc.abstractmethod
    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Fresh parameter vector (workers must call with a shared seed)."""

    @abc.abstractmethod
    def loss(self, params: np.ndarray, X, y: np.ndarray) -> float:
        """Mean loss over the given examples (plus regularisation)."""

    @abc.abstractmethod
    def gradient(self, params: np.ndarray, X, y: np.ndarray) -> np.ndarray:
        """Gradient of :meth:`loss` with respect to `params`.

        Returns a new array of the parameters' dtype that the caller may
        overwrite (the SGD step scales and consumes it in place).
        """

    def loss_and_gradient(self, params: np.ndarray, X, y: np.ndarray):
        """Override when loss and gradient share work."""
        return self.loss(params, X, y), self.gradient(params, X, y)
