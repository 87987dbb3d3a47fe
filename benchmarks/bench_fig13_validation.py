"""Figure 13: analytical-model validation + sampling estimator."""

from repro.experiments import fig13_validation
from repro.sweep.orchestrator import run_sweep


def test_fig13_validation(write_report):
    grid = fig13_validation.fixed_epoch_points(
        epoch_grid=(1, 5, 10, 25, 50), workers=10
    ) + fig13_validation.estimator_points(
        cases=(("lr", "higgs"), ("svm", "higgs")), algorithms=("ma_sgd", "admm")
    )
    result = fig13_validation.aggregate(run_sweep(grid).artifacts)
    points, estimates = result.fixed, result.estimator
    report = fig13_validation.format_report(points, estimates)
    write_report("fig13_validation", report)

    # (a) The analytical model tracks simulated runtime within ~30%.
    for p in points:
        assert abs(p.faas_predicted_s - p.faas_actual_s) / p.faas_actual_s < 0.35, p
        assert abs(p.iaas_predicted_s - p.iaas_actual_s) / p.iaas_actual_s < 0.35, p

    # (b) The 10% sampling estimator lands in the right epoch ballpark
    # and the resulting runtime prediction is the right magnitude.
    for e in estimates:
        assert e.estimated_epochs <= 3 * max(e.actual_epochs, 1.0) + 10, e
        assert e.predicted_runtime_s < 10 * e.actual_runtime_s, e
        assert e.predicted_runtime_s > e.actual_runtime_s / 10, e
