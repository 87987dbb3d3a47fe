"""Figure 9: end-to-end systems comparison (scaled worker counts)."""

from repro.experiments import fig9_end_to_end
from repro.sweep.orchestrator import run_sweep

# The full panel list with worker counts capped at 20 and epoch caps
# so the sweep finishes in CI time; Criteo and ResNet50 are covered by
# their own workload probes/tests (heaviest physical substrates).
PANELS = [
    ("lr", "higgs"),
    ("svm", "higgs"),
    ("kmeans", "higgs"),
    ("lr", "rcv1"),
    ("svm", "rcv1"),
    ("kmeans", "rcv1"),
    ("lr", "yfcc100m"),
    ("svm", "yfcc100m"),
    ("kmeans", "yfcc100m"),
    ("mobilenet", "cifar10"),
]


def test_fig9_end_to_end(write_report):
    points = fig9_end_to_end.sweep_points(
        panels=PANELS, workers_cap=50, max_epochs=20
    )
    panels = fig9_end_to_end.aggregate(run_sweep(points).artifacts)
    report = fig9_end_to_end.format_report(panels)
    write_report("fig9_end_to_end", report)

    by_name = {p.workload.split(",")[0]: p.results for p in panels}

    # Convex, communication-efficient workloads: LambdaML fastest,
    # Angel slowest (start-up + HDFS + compute).
    for workload in ("lr/higgs", "svm/higgs", "lr/rcv1", "kmeans/higgs"):
        results = by_name[workload]
        assert results["lambdaml"].duration_s < results["pytorch-sgd"].duration_s, workload
        assert results["angel"].duration_s > results["pytorch-sgd"].duration_s, workload

    # Deep model: PyTorch beats LambdaML (VM-to-VM comm beats storage
    # channels), hybrid is serdes-bound, GPU wins outright.
    mn = by_name["mobilenet/cifar10"]
    assert mn["pytorch-gpu"].duration_s < mn["pytorch-sgd"].duration_s
    assert mn["pytorch-gpu"].duration_s < mn["lambdaml"].duration_s
    assert mn["hybridps"].duration_s > mn["pytorch-gpu"].duration_s
