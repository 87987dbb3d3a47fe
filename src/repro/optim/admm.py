"""Distributed consensus ADMM (Boyd et al.), paper Section 3.2.1.

Each worker holds a local model x_i and dual u_i; the global consensus
z is the mean of (x_i + u_i). One communication round consists of

1. approximately solving the local subproblem
       min_x f_i(x) + (rho/2) ||x - z + u_i||^2
   with `scans` epochs of SGD (the paper scans the data ten times per
   round);
2. exchanging x_i + u_i (mean-reduced to obtain the new z);
3. the dual update u_i += x_i - z.

ADMM only applies to convex objectives — the executors enforce this
via ModelInfo.convex, mirroring the paper's note that it cannot train
neural networks.
"""

from __future__ import annotations

import numpy as np

from repro.data.loader import Shard, Shards
from repro.errors import ConfigurationError
from repro.models.base import SupervisedModel
from repro.optim.base import DistributedAlgorithm, stacked
from repro.optim.local import sgd_epoch


class ADMM(DistributedAlgorithm):
    reduce = "mean"

    def __init__(
        self,
        model: SupervisedModel,
        shard: Shard,
        lr: float,
        init: np.ndarray,
        rho: float = 0.05,
        scans: int = 10,
    ) -> None:
        super().__init__(shard)
        if rho <= 0:
            raise ConfigurationError(f"rho must be > 0, got {rho}")
        if scans < 1:
            raise ConfigurationError(f"scans must be >= 1, got {scans}")
        self.model = model
        self.lr = lr
        self.rho = rho
        self.scans = scans
        # Both replaced, never written in place: they may share `init`.
        self._x = self._z = init
        self._u = np.zeros_like(init)

    @property
    def epochs_per_round(self) -> float:
        return float(self.scans)

    def round_work(self) -> tuple[float, float]:
        instances = float(self.shard.n_rows * self.scans)
        iterations = float(self.shard.iterations_per_epoch * self.scans)
        return (instances, iterations)

    def _local_solve(self, z: np.ndarray, u: np.ndarray, shard) -> np.ndarray:
        """`scans` proximal SGD epochs warm-started at the consensus `z`
        (one rank's vectors and shard, or W ranks' stacked)."""

        def prox_grad(x: np.ndarray) -> np.ndarray:
            # rho * (x - z + u), built in one array.
            penalty = x - z
            penalty += u
            penalty *= self.rho
            return penalty

        x = z
        for _ in range(self.scans):
            x = sgd_epoch(self.model, x, shard, self.lr, extra_grad=prox_grad)
        return x

    def round_payload(self) -> np.ndarray:
        self._x = self._local_solve(self._z, self._u, self.shard)
        return self._x + self._u

    @classmethod
    def round_payloads(cls, algos: list, shards: Shards) -> list[np.ndarray]:
        if not stacked(algos, shards):
            return super().round_payloads(algos, shards)
        U = np.stack([algo._u for algo in algos])
        X = algos[0]._local_solve(np.stack([algo._z for algo in algos]), U, shards)
        for algo, x in zip(algos, X):
            algo._x = x
        return list(X + U)

    def apply(self, merged: np.ndarray) -> None:
        self._z = np.asarray(merged, dtype=self._x.dtype).copy()
        self._u = self._u + self._x - self._z

    def local_loss(self) -> float:
        # Statistical efficiency is tracked on the consensus model z
        # (the BSP loop evaluates right after applying the merged
        # round, so this is the freshly updated consensus).
        return self.model.loss(self._z, self.shard.X_val, self.shard.y_val)

    @property
    def params(self) -> np.ndarray:
        return self._z

    @params.setter
    def params(self, value: np.ndarray) -> None:
        self._z = np.asarray(value, dtype=self._z.dtype).copy()
