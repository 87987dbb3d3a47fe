"""Single-worker minibatch SGD primitives shared by the algorithms."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.loader import Shard, Shards
from repro.models.base import SupervisedModel


def sgd_epoch(
    model: SupervisedModel,
    params: np.ndarray,
    shard: Shard | Shards,
    lr: float,
    extra_grad: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """One shuffled pass of minibatch SGD over the shard.

    `extra_grad` adds a term to every gradient — ADMM uses it for the
    proximal penalty rho * (x - z + u); its result is only read. Returns
    new parameters (the input array is not mutated). The step is built
    in the gradient array, which ``SupervisedModel.gradient`` hands over.

    Given dense :class:`~repro.data.loader.Shards` and ``(W, d)`` params
    (a model that ``stacks``), this is every rank's epoch at once: each
    step is one stacked gradient and elementwise updates, row ``r`` bit
    for bit what shard ``r`` alone would have computed.
    """
    params = params.copy()
    for X_batch, y_batch in shard.epoch_batches():
        grad = model.gradient(params, X_batch, y_batch)
        if extra_grad is not None:
            grad += extra_grad(params)
        grad *= lr
        params -= grad
    return params
