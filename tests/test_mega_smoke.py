"""CI mega-smoke: one 1024-worker fig11 point end to end.

The mega-scale engine's canary. A single W=1024 LR/Higgs FaaS exact
training through the sweep orchestrator takes ~20 s of host wall on
the chunked-index engine — comfortably inside pytest.ini's per-test
SIGALRM ceiling — while a complexity regression in the key index,
the batched event loop or service-slot booking blows straight
through the timeout and fails here in minutes instead of surfacing
as a hung ``sweep --mega`` hours later. Marked ``slow``: the fast
lane skips it, tier-1 full and the dedicated CI ``mega-smoke`` step
run it.
"""

from __future__ import annotations

import pytest

from repro.experiments.fig11_scaling import lr_higgs_points
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
