"""CI mega-smoke: the large-W canaries of the engine.

Two end-to-end trainings at worker counts the Fig. 11 sweeps reach: a
W=1024 fig11 AllReduce point through the sweep orchestrator, and a
W=256 ScatterReduce training (O(W^2) storage ops per round, each W-1
run of them one storage-op sequence). Each takes seconds of host wall
— comfortably inside pytest.ini's per-test SIGALRM ceiling — while a
complexity regression in the key index, the batched event loop,
service-slot booking or the sequence path blows straight through the
timeout and fails here in minutes instead of surfacing as a hung
``sweep --mega`` hours later. Marked ``slow``: the fast lane skips it,
tier-1 full and the dedicated CI ``mega-smoke`` step run it.
"""

from __future__ import annotations

import pytest

from pins import pinned, register
from repro.core.config import TrainingConfig
from repro.core.driver import train
from repro.experiments.fig11_scaling import lr_higgs_points
from repro.simulation.engine import capture_stats
from repro.substrate import ExactSubstrate
from repro.sweep.orchestrator import run_sweep

pytestmark = pytest.mark.slow


def test_w1024_fig11_point_completes(tmp_path):
    points = [
        p
        for p in lr_higgs_points(
            faas_workers=(), iaas_workers=(), iaas_instances=(),
            max_epochs=40, mega=True,
        )
        if p.config_kwargs["workers"] == 1024
    ]
    (point,) = points
    run = run_sweep([point], out_dir=tmp_path)
    (artifact,) = run.artifacts
    assert artifact["config"]["workers"] == 1024
    result = artifact["result"]
    assert result["converged"]
    assert result["duration_s"] > 0
    assert result["cost_total"] > 0
    # The point is real training output, not a degenerate early exit.
    assert result["epochs"] > 0
    assert len(result["history"]) > 0


@register("mega.w256-scatterreduce")
def w256_scatterreduce() -> dict:
    config = TrainingConfig(
        model="lr", dataset="higgs", algorithm="ga_sgd", system="lambdaml",
        channel="s3", pattern="scatterreduce", workers=256, data_scale=500,
        batch_size=10000, lr=0.05, loss_threshold=None, seed=20210620,
        max_epochs=0.03,
    )
    with capture_stats() as sink:
        result = train(config, ExactSubstrate())
    # Pinned from the per-op engine (one generator resume per storage
    # op): storage-op sequences keep every event, instant and dollar.
    return {"comm_rounds": result.comm_rounds, "events": [stats.events for stats in sink],
            "duration_hex": result.duration_s.hex(), "cost_hex": result.cost_total.hex()}


def test_w256_scatterreduce_training_is_pinned():
    assert w256_scatterreduce() == pinned("mega.w256-scatterreduce")
