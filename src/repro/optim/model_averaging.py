"""MA-SGD: distributed SGD with model averaging (local SGD).

Each worker runs independent minibatch SGD for `sync_epochs` full local
epochs, then ships its *model* instead of per-batch gradients; the
merged (averaged) model restarts everyone. This cuts communication
from once-per-iteration to once-per-epoch(s) — the property that makes
it shine on FaaS for convex workloads — at the cost of consensus drift,
which is what destabilises it on non-convex models (paper §4.2).
"""

from __future__ import annotations

import numpy as np

from repro.data.loader import Shard, Shards
from repro.errors import ConfigurationError
from repro.models.base import SupervisedModel
from repro.optim.base import DistributedAlgorithm, stacked
from repro.optim.local import sgd_epoch


class ModelAveragingSGD(DistributedAlgorithm):
    reduce = "mean"

    def __init__(
        self,
        model: SupervisedModel,
        shard: Shard,
        lr: float,
        init: np.ndarray,
        sync_epochs: int = 1,
    ) -> None:
        super().__init__(shard)
        if sync_epochs < 1:
            raise ConfigurationError(f"sync_epochs must be >= 1, got {sync_epochs}")
        self.model = model
        self.lr = lr
        self.sync_epochs = sync_epochs
        self._params = init  # replaced each round, never written in place

    @property
    def epochs_per_round(self) -> float:
        return float(self.sync_epochs)

    def round_work(self) -> tuple[float, float]:
        instances = float(self.shard.n_rows * self.sync_epochs)
        iterations = float(self.shard.iterations_per_epoch * self.sync_epochs)
        return (instances, iterations)

    def _local_epochs(self, params: np.ndarray, shard) -> np.ndarray:
        """`sync_epochs` local SGD epochs (one rank, or W ranks stacked)."""
        for _ in range(self.sync_epochs):
            params = sgd_epoch(self.model, params, shard, self.lr)
        return params

    def round_payload(self) -> np.ndarray:
        self._params = self._local_epochs(self._params, self.shard)
        return self._params

    @classmethod
    def round_payloads(cls, algos: list, shards: Shards) -> list[np.ndarray]:
        if not stacked(algos, shards):
            return super().round_payloads(algos, shards)
        P = algos[0]._local_epochs(np.stack([algo._params for algo in algos]), shards)
        for algo, params in zip(algos, P):
            algo._params = params
        return list(P)

    def apply(self, merged: np.ndarray) -> None:
        self._params = np.asarray(merged, dtype=self._params.dtype).copy()

    def local_loss(self) -> float:
        return self.model.loss(self._params, self.shard.X_val, self.shard.y_val)

    @property
    def params(self) -> np.ndarray:
        return self._params

    @params.setter
    def params(self, value: np.ndarray) -> None:
        self._params = np.asarray(value, dtype=self._params.dtype).copy()
