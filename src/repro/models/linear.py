"""Linear models: logistic regression and linear SVM.

Both operate on labels in {-1, +1}, accept anything with ``X @ v`` and
``X.T @ v`` (dense ndarrays, scipy CSR matrices, the loader's raw-CSR
minibatches), and include optional L2 regularisation. The loss is the
*mean* over examples so thresholds are dataset-size independent (the
paper stops training at fixed loss thresholds, Table 4).

The gradient also takes W ranks stacked (``stacks``): its products become
one ``np.matmul`` gemv per rank on the same operands, hence the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import SupervisedModel


def _margins(X, params: np.ndarray) -> np.ndarray:
    if params.ndim == 2:  # stacked ranks: (W, b, d) @ (W, d) -> (W, b)
        return np.matmul(X, params[..., None])[..., 0]
    return np.asarray(X @ params).ravel()


class LinearModel(SupervisedModel):
    """A model of the margins ``z = y * (X @ params)``, zero at init: a subclass gives
    their mean loss and each example's ``coef``; the gradient is ``X^T coef + l2*params``."""

    stacks = True

    def __init__(self, n_features: int, l2: float | None = None) -> None:
        l2 = self.default_l2 if l2 is None else l2
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        self.n_params, self.l2 = n_features, l2
        self._scratch = None  # sparse_step's (xtv, buf), made at its first call

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.n_params)

    def loss(self, params: np.ndarray, X, y: np.ndarray) -> float:
        reg = 0.5 * self.l2 * float(params @ params)
        return float(self._mean_loss(y * _margins(X, params)) + reg)

    def gradient(self, params: np.ndarray, X, y: np.ndarray) -> np.ndarray:
        coef = self._coef(y * _margins(X, params), y)
        if coef.ndim == 2:  # stacked ranks: (W, d, b) @ (W, b) -> (W, d)
            xtv = np.matmul(np.swapaxes(X, 1, 2), coef[..., None])[..., 0]
        else:  # dense 1-D for dense or sparse X
            xtv = np.asarray(X.T @ coef).ravel()
        return xtv + self.l2 * params

    def sparse_step(self, params, X, y, lr, extra_grad) -> None:
        """``params -= lr * (gradient + extra_grad(params))`` in place on
        :class:`~repro.data.loader.CsrRows`, bit for bit: O(nnz) work and 3
        passes over d (4 with `extra_grad`) in two arrays the model keeps
        (fresh ones cost more in page faults than an epoch of small steps).
        Off the stored columns X^T coef is +0.0, so a pass steps every column
        as ``p - lr*(l2*p + extra)``, exact for -0.0-free `params`; the stored
        ones are redone from their old values and reset in ``xtv``."""
        if self._scratch is None:
            self._scratch = np.zeros(self.n_params), np.empty(self.n_params)
        (xtv, buf), cols = self._scratch, X.indices.astype(np.intp)
        extra = None if extra_grad is None else extra_grad(params)  # before xtv is dirty
        X.T.accumulate(self._coef(y * (X @ params), y), xtv)
        old, grad = params.take(cols), xtv.take(cols)
        grad += self.l2 * old
        np.multiply(params, self.l2, out=buf)
        if extra is not None:
            grad += extra.take(cols)
            buf += extra
        params -= np.multiply(buf, lr, out=buf)
        old -= np.multiply(grad, lr, out=grad)
        params[cols], xtv[cols] = old, 0.0

    def predict(self, params: np.ndarray, X) -> np.ndarray:
        return np.where(_margins(X, params) >= 0, 1, -1)

    def accuracy(self, params: np.ndarray, X, y: np.ndarray) -> float:
        return float((self.predict(params, X) == y).mean())


class LogisticRegression(LinearModel):
    """Binary logistic regression with mean log-loss (ln 2 at zero init)."""

    default_l2 = 0.0

    def _mean_loss(self, z: np.ndarray):
        return np.logaddexp(0.0, -z).mean()  # log(1 + exp(-z)), stable for large |z|

    def _coef(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return -y * _sigmoid(-z) / y.shape[-1]  # d/dz log(1+exp(-z)) = -sigmoid(-z)


class LinearSVM(LinearModel):
    """Linear SVM with mean *squared* hinge loss (0.5 at zero init): smooth, which suits SGD
    and ADMM's subproblem solver, and on the scale of the paper's thresholds (0.48 on
    Higgs, 0.05 on RCV1) that the plain hinge cannot reach (~0.8 at Higgs's Bayes accuracy)."""

    default_l2 = 1e-4

    def _mean_loss(self, z: np.ndarray):
        return 0.5 * (np.maximum(0.0, 1.0 - z) ** 2).mean()

    def _coef(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return -y * np.maximum(0.0, 1.0 - z) / y.shape[-1]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Stable logistic function: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below."""
    e = np.exp(-np.abs(z))
    denom = 1.0 + e
    return np.where(z >= 0, 1.0 / denom, e / denom)
