"""Distributed k-means via expectation maximisation.

One round = one epoch (full local pass): workers assign their rows to
the nearest centroid, emit per-cluster sums/counts plus the local
squared-distance total, SUM-reduce across workers, and recompute
centroids identically everywhere. The training loss comes for free
from the merged statistics — no separate evaluation pass, matching how
k-means reports "observed loss" in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.data.loader import Shard
from repro.models.kmeans import KMeansModel
from repro.optim.base import DistributedAlgorithm


class KMeansEM(DistributedAlgorithm):
    reduce = "sum"

    def __init__(self, model: KMeansModel, shard: Shard, init: np.ndarray) -> None:
        super().__init__(shard)
        self.model = model
        # EM requires every worker to start from *identical* centroids,
        # otherwise the merged sufficient statistics mix incompatible
        # assignments and the loss is no longer monotone. The driver
        # samples one global initialisation (``initial_model``) and
        # broadcasts it, as LambdaML's starter does.
        self._centroids = np.array(init, dtype=np.float64, copy=True)
        self._last_loss = float("inf")

    @property
    def epochs_per_round(self) -> float:
        return 1.0

    def round_work(self) -> tuple[float, float]:
        return (float(self.shard.n_rows), 1.0)

    def eval_work(self) -> tuple[float, float]:
        return (0.0, 0.0)  # loss is a by-product of the merged stats

    def round_payload(self) -> np.ndarray:
        stats = self.model.local_stats(self._centroids, self.shard.X)
        return self.model.stats_to_vector(stats)

    def apply(self, merged: np.ndarray) -> None:
        stats = self.model.vector_to_stats(merged)
        self._last_loss = self.model.loss_from_stats(stats)
        self._centroids = self.model.update(self._centroids, stats)

    def local_loss(self) -> float:
        return self._last_loss

    @property
    def params(self) -> np.ndarray:
        return self.model.flatten(self._centroids)

    @params.setter
    def params(self, value: np.ndarray) -> None:
        self._centroids = self.model.unflatten(np.asarray(value, dtype=np.float64).copy())
