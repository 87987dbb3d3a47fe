"""Single-worker minibatch SGD primitives shared by the algorithms."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.loader import Shard
from repro.models.base import SupervisedModel


def sgd_epoch(
    model: SupervisedModel,
    params: np.ndarray,
    shard: Shard,
    lr: float,
    extra_grad: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """One shuffled pass of minibatch SGD over the shard.

    `extra_grad` adds a term to every gradient — ADMM uses it for the
    proximal penalty rho * (x - z + u). Returns new parameters (the
    input array is not mutated).
    """
    params = params.copy()
    for X_batch, y_batch in shard.epoch_batches():
        grad = model.gradient(params, X_batch, y_batch)
        if extra_grad is not None:
            grad = grad + extra_grad(params)
        params -= (lr * grad).astype(params.dtype, copy=False)
    return params

