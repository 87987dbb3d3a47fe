"""Figure 13: validation of the analytical model.

(a) Fix the number of epochs (1..100) for LR on Higgs with 10 workers
    and compare the analytical prediction against the simulated actual
    runtime, for both LambdaML (FaaS) and distributed PyTorch (IaaS).

(b) Use the 10%-sampling estimator to predict epochs-to-threshold for
    LR/SVM on Higgs under both SGD and ADMM, then feed the estimates
    through the analytical model and compare against the simulated
    end-to-end runtime.

The *simulated* halves of both panels are a declarative grid
(:func:`sweep_points`) run by the sweep orchestrator; the analytical
predictions and the sampling estimator are recomputed by
:func:`aggregate` from the artifacts (they are deterministic functions
of each point's config, so the artifacts stay pure simulation results).
"""

from __future__ import annotations

from repro.analytics.estimator import SamplingEstimator
from repro.analytics.model import AnalyticalModel, WorkloadParams
from repro.config import DEFAULT_SEED
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, StudyContext, Table, study

EPOCH_GRID = (1, 5, 10, 25, 50, 100)
ESTIMATOR_CASES = (("lr", "higgs"), ("svm", "higgs"))
ESTIMATOR_ALGORITHMS = ("ma_sgd", "admm")
WORKERS = 10


def fixed_epoch_points(
    epoch_grid=EPOCH_GRID,
    workers: int = WORKERS,
    seed: int = DEFAULT_SEED,
) -> list[SweepPoint]:
    """Figure 13a grid: (epochs x platform) fixed-epoch runs."""
    base = Scenario.workload(
        "lr", "higgs", algorithm="ma_sgd", workers=workers,
        loss_threshold=None,  # fixed-epoch runs: no early stop
        seed=seed,
    )
    platforms = {
        "faas": base.vary(system="lambdaml", channel="s3"),
        "iaas": base.vary(system="pytorch", instance="t2.medium"),
    }
    return [
        on_platform.vary(max_epochs=float(epochs))
        .named(f"13a {platform},{epochs:g}ep", part="13a", platform=platform)
        .point("fig13")
        for epochs in epoch_grid
        for platform, on_platform in platforms.items()
    ]


def estimator_points(
    cases=ESTIMATOR_CASES,
    algorithms=ESTIMATOR_ALGORITHMS,
    workers: int = WORKERS,
    max_epochs: float | None = None,
    seed: int = DEFAULT_SEED,
) -> list[SweepPoint]:
    """Figure 13b grid: the end-to-end actuals the estimates are judged against."""
    points = []
    for model_name, dataset in cases:
        base = Scenario.workload(
            model_name, dataset, system="lambdaml", workers=workers,
            channel="s3", seed=seed,
        )
        if max_epochs is not None:
            base = base.vary(max_epochs=min(base.kwargs["max_epochs"], max_epochs))
        points += [
            s.named(
                f"13b {model_name}/{dataset} {s.kwargs['algorithm']}",
                part="13b", workload=f"{model_name}/{dataset}",
            ).point("fig13")
            for s in base.grid(algorithm=algorithms)
        ]
    return points


def sweep_points(ctx: StudyContext = StudyContext()) -> list[SweepPoint]:
    """The full Figure-13 grid (both panels' simulated actuals).

    ``ctx.max_epochs`` down-scales panel (a) by dropping grid values above
    the cap (keeping at least one point at the cap itself) and caps the
    panel (b) workload budgets.
    """
    max_epochs, grid = ctx.max_epochs, EPOCH_GRID
    if max_epochs is not None:
        grid = tuple(e for e in EPOCH_GRID if e <= max_epochs) or (max_epochs,)
    return fixed_epoch_points(epoch_grid=grid, seed=ctx.seed) + estimator_points(
        max_epochs=max_epochs, seed=ctx.seed
    )


def aggregate(artifacts: list[dict]) -> list[dict]:
    """Rebuild both panels, recomputing predictions next to the actuals.

    One row per panel line, its ``part`` the panel: ``"13a"`` rows pair
    an epoch count's FaaS and IaaS runs, ``"13b"`` rows hold one
    estimator pass each.
    """
    frame = []

    # Panel (a): pair faas/iaas actuals per epoch count, in point order.
    pairs: dict[float, dict[str, dict]] = {}
    for artifact in artifacts:
        if artifact["tags"]["part"] != "13a":
            continue
        epochs = artifact["config"]["max_epochs"]
        pairs.setdefault(epochs, {})[artifact["tags"]["platform"]] = artifact
    for epochs, sides in pairs.items():
        if "faas" not in sides or "iaas" not in sides:
            continue  # interrupted sweep directory: render what exists
        workers = sides["faas"]["config"]["workers"]
        # MA-SGD: one exchange per epoch.
        scaled_model = AnalyticalModel(
            WorkloadParams.from_zoo("lr", "higgs", float(epochs), rounds_per_epoch=1.0)
        )
        frame.append({
            "part": "13a",
            "epochs": float(epochs),
            "faas_actual_s": sides["faas"]["result"]["duration_s"],
            "faas_predicted_s": scaled_model.faas_seconds(workers),
            "iaas_actual_s": sides["iaas"]["result"]["duration_s"],
            "iaas_predicted_s": scaled_model.iaas_seconds(workers),
        })

    # Panel (b): one estimator pass per actual run. The estimator is
    # seeded from the point's config, so this is deterministic — but it
    # *is* real numpy work (the 10% sample actually trains).
    for artifact in artifacts:
        if artifact["tags"]["part"] != "13b":
            continue
        config = artifact["config"]
        model_name, dataset = config["model"], config["dataset"]
        estimator = SamplingEstimator(sample_fraction=0.1, seed=config["seed"])
        estimate = estimator.estimate(
            model_name, dataset, config["algorithm"],
            lr=config["lr"], threshold=config["loss_threshold"],
            batch_size=max(32, config["batch_size"] // 100),
            max_epochs=config["max_epochs"],
        )
        params = WorkloadParams.from_zoo(
            model_name, dataset, estimate.epochs,
            # ADMM exchanges once per ten scans, SGD once per epoch.
            rounds_per_epoch=0.1 if config["algorithm"] == "admm" else 1.0,
        )
        predicted = AnalyticalModel(params).faas_seconds(config["workers"])
        frame.append({
            "part": "13b",
            "workload": f"{model_name}/{dataset}",
            "algorithm": config["algorithm"],
            "estimated_epochs": estimate.epochs,
            "actual_epochs": artifact["result"]["epochs"],
            "predicted_runtime_s": predicted,
            "actual_runtime_s": artifact["result"]["duration_s"],
        })
    return frame


def _model_tracks_simulation(rows: list[dict]) -> str | None:
    return "; ".join(
        f"{p['epochs']:g} epochs {side}: predicted {pred:.4g} s, simulated {actual:.4g} s"
        for p in rows if p["part"] == "13a"
        for side, pred, actual in (
            ("FaaS", p["faas_predicted_s"], p["faas_actual_s"]),
            ("IaaS", p["iaas_predicted_s"], p["iaas_actual_s"]),
        )
        if not abs(pred - actual) / actual < 0.35
    ) or None


def _estimates(rows: list[dict], holds) -> str | None:
    """``None`` when ``holds(estimate)`` for every estimator row."""
    return "; ".join(
        f"{e['workload']} {e['algorithm']}: estimated {e['estimated_epochs']:.3g} epochs, "
        f"{e['predicted_runtime_s']:.4g} s; simulated {e['actual_epochs']:.3g}, "
        f"{e['actual_runtime_s']:.4g} s"
        for e in rows if e["part"] == "13b"
        if not holds(e)
    ) or None


@study("fig13")
class Fig13Study:
    """analytical-model validation: fixed-epoch runtimes + sampling-estimator predictions"""

    points = staticmethod(sweep_points)

    aggregate = staticmethod(aggregate)
    report = (
        Table("Figure 13a — analytical model vs simulated runtime (LR, Higgs, W=10)", (
            ("epochs", "epochs"),
            ("FaaS actual", "faas_actual_s"),
            ("FaaS predicted", "faas_predicted_s"),
            ("IaaS actual", "iaas_actual_s"),
            ("IaaS predicted", "iaas_predicted_s"),
        ), where=(("part", "13a"),)),
        Table("Figure 13b — sampling estimator + analytical model", (
            ("workload", "workload"),
            ("algorithm", "algorithm"),
            ("est epochs", "estimated_epochs"),
            ("actual epochs", "actual_epochs"),
            ("predicted(s)", "predicted_runtime_s"),
            ("actual(s)", "actual_runtime_s"),
        ), where=(("part", "13b"),)),
    )
    claims = (
        # Within 35 % of the simulated runtime, on both platforms.
        Claim("fig13.model_tracks_simulation", "Fig. 13a, §5.4",
              _model_tracks_simulation),
        # The 10 % sample lands in the right epoch ballpark...
        Claim("fig13.estimator_epochs_ballpark", "Fig. 13b, §5.4", lambda r: _estimates(
            r, lambda e: e["estimated_epochs"] <= 3 * max(e["actual_epochs"], 1.0) + 10)),
        # ...and its runtime prediction has the right magnitude.
        Claim("fig13.estimator_runtime_magnitude", "Fig. 13b, §5.4", lambda r: _estimates(
            r, lambda e: e["actual_runtime_s"] / 10 < e["predicted_runtime_s"]
            < 10 * e["actual_runtime_s"])),
    )
