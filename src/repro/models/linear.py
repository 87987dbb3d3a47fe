"""Linear models: logistic regression and linear SVM.

Both operate on labels in {-1, +1}, accept anything with ``X @ v`` and
``X.T @ v`` (dense ndarrays, scipy CSR matrices, the loader's raw-CSR
minibatches), and include optional L2 regularisation. The loss is the
*mean* over examples so thresholds are dataset-size independent (the
paper stops training at fixed loss thresholds, Table 4).

The gradient also takes W ranks stacked (``stacks``): the two products
become ``np.matmul`` over the rank axis — one gemv per rank on the same
operands, hence the same bits — and everything else is elementwise.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import SupervisedModel


def _margins(X, params: np.ndarray) -> np.ndarray:
    if params.ndim == 2:  # stacked ranks: (W, b, d) @ (W, d) -> (W, b)
        return np.matmul(X, params[..., None])[..., 0]
    return np.asarray(X @ params).ravel()


def _xtv(X, v: np.ndarray) -> np.ndarray:
    """X^T v as a dense 1-D array for dense or sparse X (per rank if stacked)."""
    if v.ndim == 2:
        return np.matmul(np.swapaxes(X, 1, 2), v[..., None])[..., 0]
    return np.asarray(X.T @ v).ravel()


class LogisticRegression(SupervisedModel):
    """Binary logistic regression with mean log-loss."""

    stacks = True

    def __init__(self, n_features: int, l2: float = 0.0) -> None:
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        self.n_params = n_features
        self.l2 = l2

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        # Zero init gives the canonical starting loss ln 2 ≈ 0.6931.
        return np.zeros(self.n_params)

    def loss(self, params: np.ndarray, X, y: np.ndarray) -> float:
        z = y * _margins(X, params)
        # log(1 + exp(-z)) computed stably for large |z|.
        losses = np.logaddexp(0.0, -z)
        reg = 0.5 * self.l2 * float(params @ params)
        return float(losses.mean() + reg)

    def gradient(self, params: np.ndarray, X, y: np.ndarray) -> np.ndarray:
        z = y * _margins(X, params)
        # d/dz log(1+exp(-z)) = -sigmoid(-z)
        coef = -y * _sigmoid(-z) / y.shape[-1]
        return _xtv(X, coef) + self.l2 * params

    def predict(self, params: np.ndarray, X) -> np.ndarray:
        return np.where(_margins(X, params) >= 0, 1, -1)

    def accuracy(self, params: np.ndarray, X, y: np.ndarray) -> float:
        return float((self.predict(params, X) == y).mean())


class LinearSVM(SupervisedModel):
    """Linear SVM with mean *squared* hinge loss.

    The squared hinge (L2-SVM) is smooth, which suits both SGD and the
    ADMM subproblem solver, and its loss scale matches the thresholds
    the paper trains to (0.48 on Higgs, 0.05 on RCV1) — the plain hinge
    cannot go below ~0.8 at Higgs's Bayes accuracy.
    """

    stacks = True

    def __init__(self, n_features: int, l2: float = 1e-4) -> None:
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        self.n_params = n_features
        self.l2 = l2

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        # Zero init gives squared hinge loss exactly 0.5.
        return np.zeros(self.n_params)

    def loss(self, params: np.ndarray, X, y: np.ndarray) -> float:
        margins = y * _margins(X, params)
        violation = np.maximum(0.0, 1.0 - margins)
        reg = 0.5 * self.l2 * float(params @ params)
        return float(0.5 * (violation**2).mean() + reg)

    def gradient(self, params: np.ndarray, X, y: np.ndarray) -> np.ndarray:
        margins = y * _margins(X, params)
        violation = np.maximum(0.0, 1.0 - margins)
        coef = -y * violation / y.shape[-1]
        return _xtv(X, coef) + self.l2 * params

    def predict(self, params: np.ndarray, X) -> np.ndarray:
        return np.where(_margins(X, params) >= 0, 1, -1)

    def accuracy(self, params: np.ndarray, X, y: np.ndarray) -> float:
        return float((self.predict(params, X) == y).mean())


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Stable logistic function: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below."""
    e = np.exp(-np.abs(z))
    denom = 1.0 + e
    return np.where(z >= 0, 1.0 / denom, e / denom)
