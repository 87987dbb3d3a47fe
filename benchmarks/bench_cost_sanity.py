"""Section 5.1.1: COST sanity check (1 machine vs 10 workers)."""

from repro.experiments import cost_sanity
from repro.sweep.orchestrator import run_sweep


def test_cost_sanity(write_report):
    points = []
    for model, dataset in [("lr", "higgs"), ("svm", "higgs"), ("kmeans", "higgs")]:
        points += cost_sanity.case_points(model, dataset, max_epochs=30)
    rows = cost_sanity.aggregate(run_sweep(points).artifacts)
    report = cost_sanity.format_report(rows)
    write_report("cost_sanity", report)
    # Paper: ~9-10x on the convex Higgs workloads; we require real,
    # greater-than-2x scaling so the distributed runs are justified.
    for row in rows:
        assert row.faas_speedup > 2.0, row.workload
        assert row.iaas_speedup > 1.0, row.workload
