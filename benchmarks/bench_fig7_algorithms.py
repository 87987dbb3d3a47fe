"""Figure 7: GA-SGD vs MA-SGD vs ADMM on LambdaML.

Scaled: the paper's 300-worker runs use 96 workers here (the ordering
and the anti-scaling of GA-SGD appear well before 300); GA-SGD epoch
caps keep the known-slow configurations bounded.
"""

from repro.experiments import fig7_algorithms
from repro.sweep.orchestrator import run_sweep

WORKER_COUNTS = (10, 96)


def test_fig7a_lr_higgs(write_report):
    points = fig7_algorithms.workload_points(
        model="lr",
        dataset="higgs",
        worker_counts=WORKER_COUNTS,
        max_epochs=40,
        ga_max_epochs=2,
    )
    (comparison,) = fig7_algorithms.aggregate(run_sweep(points).artifacts)
    report = fig7_algorithms.format_report(comparison, WORKER_COUNTS)
    write_report("fig7a_lr_higgs", report)
    admm_speedup = comparison.speedup("admm", *WORKER_COUNTS)
    ga_speedup = comparison.speedup("ga_sgd", *WORKER_COUNTS)
    # Paper: ADMM ~16x, GA-SGD ~0.08x. Shapes: ADMM scales, GA anti-scales.
    assert admm_speedup > 1.5
    assert ga_speedup < 1.0
    assert admm_speedup > ga_speedup


def test_fig7b_svm_higgs(write_report):
    points = fig7_algorithms.workload_points(
        model="svm",
        dataset="higgs",
        worker_counts=WORKER_COUNTS,
        max_epochs=40,
        ga_max_epochs=2,
    )
    (comparison,) = fig7_algorithms.aggregate(run_sweep(points).artifacts)
    report = fig7_algorithms.format_report(comparison, WORKER_COUNTS)
    write_report("fig7b_svm_higgs", report)
    assert comparison.speedup("admm", *WORKER_COUNTS) > comparison.speedup(
        "ga_sgd", *WORKER_COUNTS
    )


def test_fig7c_mobilenet_cifar10(write_report):
    points = fig7_algorithms.workload_points(
        model="mobilenet",
        dataset="cifar10",
        worker_counts=(10, 50),
        max_epochs=3,
        ga_max_epochs=3,
    )
    (comparison,) = fig7_algorithms.aggregate(run_sweep(points).artifacts)
    report = fig7_algorithms.format_report(comparison, (10, 50))
    write_report("fig7c_mobilenet_cifar10", report)
    ga = comparison.results[("ga_sgd", 10)]
    ma = comparison.results[("ma_sgd", 10)]
    # Paper: MA-SGD unstable on the neural model; GA-SGD is the choice.
    assert ga.final_loss < ma.final_loss
