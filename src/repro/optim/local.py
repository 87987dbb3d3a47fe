"""Single-worker minibatch SGD primitives shared by the algorithms."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.loader import CsrRows, Shard, Shards
from repro.models.base import SupervisedModel

#: A CSR minibatch storing fewer than ``d / SPARSE_STEP_RATIO`` entries
#: takes the model's ``sparse_step``: the two paths cost the same near
#: that fill on RCV1 (README, "minibatch step").
SPARSE_STEP_RATIO = 10


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

    A CSR minibatch that stores few entries against d takes the model's
    ``sparse_step`` instead, if it has one: the same bits at O(nnz) plus
    a few passes over d. That step may not see a -0.0 parameter; no step
    makes one (``x - y`` is -0.0 only for x = -0.0), so one look at the
    first such batch holds for the epoch.

    Given dense :class:`~repro.data.loader.Shards` and ``(W, d)`` params
    (a model that ``stacks``), this is every rank's epoch at once: each
    step is one stacked gradient and elementwise updates, row ``r`` bit
    for bit what shard ``r`` alone would have computed.
    """
    params = params.copy()
    sparse = model.sparse_step if params.ndim == 1 and params.dtype == np.float64 else None
    clean = None  # holds params no -0.0? Looked up at the first sparse batch.
    for X_batch, y_batch in shard.epoch_batches():
        if (sparse is not None and isinstance(X_batch, CsrRows)
                and X_batch.indices.size * SPARSE_STEP_RATIO < params.size):
            if clean is None:
                clean = not (params.view(np.int64) == np.iinfo(np.int64).min).any()
            if clean:
                sparse(params, X_batch, y_batch, lr, extra_grad)
                continue
        grad = model.gradient(params, X_batch, y_batch)
        if extra_grad is not None:
            grad += extra_grad(params)
        grad *= lr
        params -= grad
    return params
