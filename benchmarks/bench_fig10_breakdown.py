"""Figure 10: runtime breakdown, LR on Higgs, W=10, 10 epochs."""

import pytest

from repro.experiments import fig10_breakdown
from repro.sweep.orchestrator import run_sweep

# Paper-reported seconds: (startup, load, compute, comm, total).
PAPER = {
    "pytorch": (132, 9, 80, 0.9, 221),
    "angel": (457, 35, 125, 1.1, 618),
    "hybridps": (123, 9, 80, 1.0, 213),
    "lambdaml": (1, 9, 80, 2, 92),
}


def test_fig10_breakdown(write_report):
    points = fig10_breakdown.sweep_points(max_epochs=10.0, workers=10)
    rows = fig10_breakdown.aggregate(run_sweep(points).artifacts)
    report = fig10_breakdown.format_report(rows)
    write_report("fig10_breakdown", report)

    by_system = {r.system: r for r in rows}
    for system, (startup, load, compute, _comm, total) in PAPER.items():
        row = by_system[system]
        assert row.startup_s == pytest.approx(startup, rel=0.35), system
        assert row.load_s == pytest.approx(load, rel=0.6), system
        assert row.compute_s == pytest.approx(compute, rel=0.4), system
        assert row.total_s == pytest.approx(total, rel=0.4), system

    # Orderings the paper highlights.
    assert by_system["lambdaml"].total_s < by_system["hybridps"].total_s
    assert by_system["hybridps"].total_s < by_system["angel"].total_s
    assert (
        by_system["lambdaml"].total_without_startup_s
        >= by_system["pytorch"].total_without_startup_s
    )
