"""Acceptance: every tuned workload converges under its registry settings.

This suite keeps `repro.experiments.workloads` honest — if a generator,
algorithm or threshold drifts, the corresponding workload stops
converging and this file points at it. Worker counts are scaled down
(convergence is what's under test, not scale).
"""

from __future__ import annotations

import pytest

from repro.core.config import TrainingConfig
from repro.core.driver import train
from repro.experiments.workloads import WORKLOADS

# Full-substrate convergence runs are the suite's long tail (the
# Criteo case alone is ~50 s: nine dense passes over its 10^6
# parameters per step); CI's fast lane skips them.
pytestmark = pytest.mark.slow

# (workload key, scaled workers, epoch cap) — chosen so each case runs
# in seconds while leaving headroom above the expected convergence point.
CASES = [
    ("lr/higgs", 10, 40),
    ("svm/higgs", 10, 40),
    ("kmeans/higgs", 10, 40),
    ("lr/rcv1", 5, 40),
    ("svm/rcv1", 5, 40),
    ("kmeans/rcv1", 10, 30),
    ("lr/yfcc100m", 50, 40),
    ("svm/yfcc100m", 50, 30),
    ("kmeans/yfcc100m", 50, 30),
    ("lr/criteo", 40, 15),
    ("mobilenet/cifar10", 10, 25),
    ("resnet50/cifar10", 10, 15),
]


@pytest.mark.parametrize("key,workers,max_epochs", CASES, ids=[c[0] for c in CASES])
def test_workload_converges(key, workers, max_epochs):
    w = WORKLOADS[key]
    config = TrainingConfig(
        model=w.model,
        dataset=w.dataset,
        algorithm=w.algorithm,
        system="lambdaml",
        workers=workers,
        channel="memcached",
        channel_prestarted=True,
        batch_size=w.batch_size,
        batch_scope=w.batch_scope,
        min_local_batch=w.min_local_batch,
        lr=w.lr,
        k=w.k,
        loss_threshold=w.threshold,
        max_epochs=max_epochs,
        seed=20210620,
    )
    result = train(config)
    assert result.converged, (
        f"{key} did not reach {w.threshold} (got {result.final_loss:.4f} "
        f"after {result.epochs:.1f} epochs)"
    )
    # Convergence must be attributable: loss actually improved.
    first = result.history[0].loss
    assert result.final_loss < first
