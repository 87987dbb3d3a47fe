"""Sampling-based epochs-to-convergence estimator (after Kaoudi et al. [54]).

The analytical model needs R (epochs to the loss threshold) as input.
Following the paper's validation protocol (Figure 13b), we estimate R
by training on a small sample (default 10 %) of the data on a single
worker, recording the loss trajectory, and reading off the first epoch
that crosses the threshold — fractional via linear interpolation.

ADMM is estimated in *rounds* and converted to epochs via its
scans-per-round, matching how the executors count epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.loader import Shard
from repro.data.synth import generate
from repro.errors import ConfigurationError
from repro.models.zoo import build_model
from repro.optim.base import initial_model, make_algorithm
from repro.utils.rng import make_rng


@dataclass
class EpochEstimate:
    """Estimated epochs to threshold plus the observed trajectory."""

    epochs: float
    converged: bool
    trajectory: list[tuple[float, float]]  # (epoch, loss)


class SamplingEstimator:
    """Estimate epochs-to-threshold from a data sample."""

    def __init__(self, sample_fraction: float = 0.1, seed: int = 0) -> None:
        if not 0 < sample_fraction <= 1:
            raise ConfigurationError(
                f"sample_fraction must be in (0, 1], got {sample_fraction}"
            )
        self.sample_fraction = sample_fraction
        self.seed = seed

    def estimate(
        self,
        model_name: str,
        dataset: str,
        algorithm: str,
        lr: float,
        threshold: float,
        batch_size: int = 1000,
        k: int = 10,
        max_epochs: float = 60.0,
        data_scale: int | None = None,
    ) -> EpochEstimate:
        split = generate(dataset, scale=data_scale, seed=self.seed)
        rng = make_rng(self.seed + 1)
        n = split.n_train
        take = max(32, int(n * self.sample_fraction))
        idx = rng.choice(n, size=take, replace=False)

        model, _info = build_model(model_name, dataset, k=k)
        shard = Shard(
            rank=0,
            X=split.X_train[idx],
            y=split.y_train[idx],
            X_val=split.X_val,
            y_val=split.y_val,
            # The caller passes the training run's physical minibatch;
            # on the sample, fewer iterations per epoch fall out
            # naturally from the smaller row count.
            batch_size=max(1, min(batch_size, take)),
            rng=make_rng(self.seed + 2),
        )
        init = initial_model(algorithm, model, self.seed, shard.X)
        algo = make_algorithm(algorithm, model, shard, lr=lr, init=init)

        trajectory: list[tuple[float, float]] = [(0.0, algo.local_loss())]
        epochs = 0.0
        while epochs < max_epochs:
            payload = algo.round_payload()
            # Single worker: the merged statistic is its own payload.
            algo.apply(np.asarray(payload, dtype=np.float64))
            epochs += algo.epochs_per_round
            trajectory.append((epochs, algo.local_loss()))
            if trajectory[-1][1] <= threshold:
                break
        epochs_needed = _first_crossing(trajectory, threshold)
        return EpochEstimate(
            epochs=epochs_needed if epochs_needed is not None else max_epochs,
            converged=epochs_needed is not None,
            trajectory=trajectory,
        )


def _first_crossing(
    trajectory: list[tuple[float, float]], threshold: float
) -> float | None:
    """Fractional epoch at which the trajectory first crosses threshold."""
    for (e0, l0), (e1, l1) in zip(trajectory, trajectory[1:]):
        if l1 <= threshold:
            if l0 <= threshold:
                return e0
            if l0 == l1:
                return e1
            frac = (l0 - threshold) / (l0 - l1)
            return e0 + frac * (e1 - e0)
    if trajectory and trajectory[0][1] <= threshold:
        return 0.0
    return None
