"""GA-SGD: distributed SGD with gradient averaging.

Workers compute minibatch gradients in lockstep and synchronise *every
iteration*; the merged (averaged) gradient updates every local model
identically, so all workers hold the same parameters. Communication-
heavy but statistically identical to large-batch single-node SGD —
exactly the behaviour the paper stresses when showing GA-SGD loses to
MA-SGD/ADMM on FaaS for convex models but is the only stable choice
for deep models.
"""

from __future__ import annotations

import numpy as np

from repro.data.loader import Shard, Shards
from repro.models.base import SupervisedModel
from repro.optim.base import DistributedAlgorithm, stacked


class GradientAveragingSGD(DistributedAlgorithm):
    reduce = "mean"

    def __init__(self, model: SupervisedModel, shard: Shard, lr: float, init: np.ndarray):
        super().__init__(shard)
        self.model = model
        self.lr = lr
        self._params = np.array(init, copy=True)  # apply_merged writes it in place
        # The batch cursor is explicit state (permutation + offset), not
        # a live generator: the lockstep pass moves every rank's cursor
        # together (round_payloads). The RNG call sequence is identical
        # to iterating ``shard.epoch_batches()`` — one permutation per
        # epoch, drawn when the epoch's first batch is taken. Each round
        # gathers only its own batch: one round is one minibatch, so an
        # epoch-gathered copy of the shard would buy nothing.
        self._order: np.ndarray | None = None
        self._cursor = 0

    @property
    def epochs_per_round(self) -> float:
        return 1.0 / self.shard.iterations_per_epoch

    def round_work(self) -> tuple[float, float]:
        return (float(self.shard.batch_size), 1.0)

    def _next_rows(self) -> np.ndarray:
        shard = self.shard
        if self._order is None or self._cursor >= shard.n_rows:
            self._order = shard.rng.permutation(shard.n_rows)
            self._cursor = 0
        idx = self._order[self._cursor : self._cursor + shard.batch_size]
        self._cursor += shard.batch_size
        return idx

    def round_payload(self) -> np.ndarray:
        idx = self._next_rows()
        return self.model.gradient(self._params, self.shard.X[idx], self.shard.y[idx])

    @classmethod
    def round_payloads(cls, algos: list, shards: Shards) -> list[np.ndarray]:
        if not stacked(algos, shards):
            return super().round_payloads(algos, shards)
        X_batch, y_batch = shards.gather(np.stack([algo._next_rows() for algo in algos]))
        params = np.stack([algo._params for algo in algos])
        return list(algos[0].model.gradient(params, X_batch, y_batch))

    def _step(self, merged: np.ndarray) -> np.ndarray:
        """``lr · merged`` in the parameters' dtype: the float64 product
        rounded on output, as ``astype`` would, with no float64 copy."""
        step = np.empty_like(self._params)
        return np.multiply(merged, self.lr, out=step, casting="same_kind")

    def apply(self, merged: np.ndarray) -> None:
        step = self._step(merged)
        self._params = np.subtract(self._params, step, out=step)

    @classmethod
    def apply_merged(cls, algos: list, merged: np.ndarray) -> None:
        # Every rank holds the same lr and dtype, so the step is one
        # array. Each rank owns its parameters (the constructor, the
        # setter and apply all hand it a fresh array), so each subtracts
        # the step in place.
        step = algos[0]._step(merged)
        for algo in algos:
            np.subtract(algo._params, step, out=algo._params)

    def local_loss(self) -> float:
        return self.model.loss(self._params, self.shard.X_val, self.shard.y_val)

    @property
    def params(self) -> np.ndarray:
        return self._params

    @params.setter
    def params(self, value: np.ndarray) -> None:
        self._params = np.asarray(value, dtype=self._params.dtype).copy()
