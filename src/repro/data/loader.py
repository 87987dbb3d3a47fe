"""Worker-local data shards and minibatch iteration.

A :class:`Shard` is what one executor holds after loading its partition
from S3: a slice of the training matrix, a slice of the validation set
(validation loss is averaged across workers at synchronisation points),
and a deterministic minibatch sampler that reshuffles every epoch.
:func:`make_shards` returns a run's shards as :class:`Shards`, whose
dense shards are views of one block that the lockstep pass gathers
every rank's minibatch from at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.partition import partition_indices
from repro.data.synth import TrainValSplit
from repro.errors import ConfigurationError
from repro.utils.rng import make_rng


class CsrRows:
    """A run of CSR rows as raw arrays: a minibatch without a scipy object.

    Supports what a gradient step uses — ``X @ v``, ``X.T @ v``,
    ``shape`` — through the compiled routines ``csr_matrix @ v`` and
    ``csc_matrix @ v`` themselves dispatch to, on the same operands, so
    the products are bit-identical to scipy's while skipping the
    validated constructors (over twice the kernels' own cost per batch).
    """

    __slots__ = ("indptr", "indices", "data", "shape", "transposed")

    def __init__(self, indptr, indices, data, shape, transposed=False) -> None:
        self.indptr, self.indices, self.data = indptr, indices, data
        self.shape = shape
        self.transposed = transposed

    @property
    def T(self) -> "CsrRows":
        # The same three arrays read column-major are the transpose.
        return CsrRows(
            self.indptr, self.indices, self.data, self.shape[::-1], not self.transposed
        )

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        rows, cols = self.shape
        if v.shape != (cols,):  # the compiled kernels index `v` unchecked
            raise ValueError(f"cannot multiply {self.shape} rows by a vector of shape {v.shape}")
        # Bound here, not at module level: a dense run never loads scipy.
        from scipy.sparse._sparsetools import csc_matvec, csr_matvec

        out = np.zeros(rows, dtype=np.result_type(self.data.dtype, v.dtype))
        kernel = csc_matvec if self.transposed else csr_matvec
        kernel(rows, cols, self.indptr, self.indices, self.data, v, out)
        return out


@dataclass
class Shard:
    """One worker's local training/validation data."""

    rank: int
    X: object  # ndarray or CSR slice
    y: np.ndarray
    X_val: object
    y_val: np.ndarray
    batch_size: int
    rng: np.random.Generator = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.rng is None:
            self.rng = make_rng(self.rank)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def iterations_per_epoch(self) -> int:
        return max(1, -(-self.n_rows // self.batch_size))  # ceil division

    def epoch_batches(self):
        """Yield (X_batch, y_batch) covering the shard once, shuffled.

        The shuffled shard is gathered once and the batches are
        consecutive row runs of that copy — array views for dense data,
        :class:`CsrRows` for CSR data — which live as long as the
        generator does.
        """
        n_rows, step = self.n_rows, self.batch_size
        order = self.rng.permutation(n_rows)
        X, y = self.X[order], self.y[order]
        if isinstance(X, np.ndarray):
            for a in range(0, n_rows, step):
                yield X[a : a + step], y[a : a + step]
            return
        indptr, indices, data, n_cols = X.indptr, X.indices, X.data, X.shape[1]
        for a in range(0, n_rows, step):
            b = min(a + step, n_rows)
            lo, hi = indptr[a], indptr[b]
            rows = CsrRows(indptr[a : b + 1] - lo, indices[lo:hi], data[lo:hi], (b - a, n_cols))
            yield rows, y[a:b]


class Shards(list):
    """One run's W shards and, for dense data, the one block they view.

    ``X`` is ``(W, n, d)`` and ``y`` is ``(W, n)``; shard ``r`` holds the
    views ``X[r]`` and ``y[r]``, so a lockstep step gathers every rank's
    minibatch with one take instead of W. Both are ``None`` for sparse
    data. The block is the same bytes the W per-rank copies were.
    """

    def __init__(self, shards, X=None, y=None) -> None:
        super().__init__(shards)
        self.X, self.y = X, y
        if X is not None:
            workers, n_rows = y.shape
            # Row `orders[r, i]` of shard r is row `orders[r, i] + r * n`.
            self._offsets = np.arange(0, workers * n_rows, n_rows)[:, None]
            self._rows, self._labels = X.reshape(workers * n_rows, -1), y.reshape(-1)

    def gather(self, orders: np.ndarray):
        """Stacked minibatch ``(W, b, d)``, ``(W, b)``: row ``orders[r]`` of
        every shard ``r``, in one take from the block."""
        return self._take(orders + self._offsets)

    def _take(self, rows: np.ndarray):
        return self._rows.take(rows, axis=0), self._labels.take(rows)

    def epoch_batches(self):
        """:meth:`Shard.epoch_batches` for every rank at once: batch ``r``
        of each stacked pair is the rows shard ``r`` would have yielded:
        each shard draws the epoch's shuffle from its own generator."""
        n_rows, step = self[0].n_rows, self[0].batch_size
        rows = np.stack([shard.rng.permutation(n_rows) for shard in self]) + self._offsets
        for a in range(0, n_rows, step):
            yield self._take(rows[:, a : a + step])


def make_shards(
    split: TrainValSplit,
    workers: int,
    global_batch: int,
    partition_mode: str = "iid",
    skew: float = 0.8,
    seed: int = 0,
    min_local_batch: int = 1,
) -> Shards:
    """Partition a dataset across `workers` executors.

    `global_batch` is the paper-style global minibatch size; each worker
    processes `global_batch / workers` rows per iteration (at least 1).
    `min_local_batch` floors the per-worker batch: high-dimensional
    workloads whose scaled-down physical batch would collapse to one
    row (YFCC100M, Criteo at W=100) use a floor of ~32 so minibatch
    statistics stay meaningful; this only affects the *statistics*, as
    simulated compute time is charged on logical data volumes.
    """
    if global_batch < 1:
        raise ConfigurationError(f"global_batch must be >= 1, got {global_batch}")
    train_parts = partition_indices(
        split.n_train,
        workers,
        mode=partition_mode,
        labels=split.y_train,
        skew=skew,
        seed=seed,
    )
    val_parts = partition_indices(split.y_val.shape[0], workers, mode="iid", seed=seed + 1)
    # Trim shards to a uniform size: synchronous (BSP) training requires
    # every worker to run the identical number of iterations per epoch,
    # otherwise the per-round rendezvous would deadlock. At most
    # `workers - 1` rows are dropped.
    train_size = min(len(p) for p in train_parts)
    val_size = min(len(p) for p in val_parts)
    train_parts = [p[:train_size] for p in train_parts]
    val_parts = [p[:val_size] for p in val_parts]
    local_batch = max(1, min_local_batch, round(global_batch / workers))
    rngs = [make_rng(seed * 1000 + rank) for rank in range(workers)]
    X_block = y_block = None
    if isinstance(split.X_train, np.ndarray):
        block_rows = np.stack(train_parts)
        X_block, y_block = split.X_train[block_rows], split.y_train[block_rows]
        X_parts, y_parts = list(X_block), list(y_block)
    else:
        X_parts = [split.X_train[part] for part in train_parts]
        y_parts = [split.y_train[part] for part in train_parts]
    shards = [
        Shard(
            rank=rank,
            X=X_parts[rank],
            y=y_parts[rank],
            X_val=split.X_val[val_parts[rank]],
            y_val=split.y_val[val_parts[rank]],
            batch_size=local_batch,
            rng=rngs[rank],
        )
        for rank in range(workers)
    ]
    return Shards(shards, X_block, y_block)
