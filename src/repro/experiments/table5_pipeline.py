"""Table 5: end-to-end ML pipelines (preprocess + grid search).

Pipeline: (1) normalise features with one 10-worker job; (2) grid
search the learning rate over [0.01, 0.1] step 0.01, one training job
per candidate (each with 10 workers and 10 epochs). FaaS triggers one
serverless job per hyper-parameter with S3 as the medium; IaaS runs the
candidates sequentially on a reserved 10-VM cluster (paying start-up
once but holding the VMs for the whole sweep).

Expected shape (paper's Table 5): FaaS is faster but costlier for
LR/Higgs; IaaS is both faster and much cheaper for MobileNet.

The per-candidate training jobs are a declarative grid
(:func:`sweep_points`: workload x platform x learning rate) run by the
sweep orchestrator; :func:`aggregate` replays the pipeline arithmetic
(pre-processing pass, cluster start-up amortisation, billing) over the
artifacts in grid order, so the sums are bit-identical to the old
sequential loop.
"""

from __future__ import annotations

from repro.config import DEFAULT_SEED
from repro.data.datasets import get_spec
from repro.iaas.cluster import iaas_startup_seconds
from repro.pricing.catalog import DEFAULT_CATALOG
from repro.storage.services import S3_PROFILE
from repro.sweep.artifacts import result_from_artifact
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, StudyContext, Table, study

WORKERS = 10
GRID = [round(0.01 * i, 2) for i in range(1, 11)]
CASES = (("lr", "higgs"), ("mobilenet", "cifar10"))


def _preprocess_seconds(dataset_bytes: float, workers: int) -> float:
    """Normalisation pass: read from S3, scale, write back."""
    per_worker = dataset_bytes / workers
    return 2 * per_worker / S3_PROFILE.bandwidth_bps  # read + write


def case_points(
    model: str,
    dataset: str,
    epochs_per_job: float = 10.0,
    grid=GRID,
    seed: int = DEFAULT_SEED,
) -> list[SweepPoint]:
    """The grid-search jobs of one pipeline case (both platforms)."""
    base = Scenario.workload(
        model, dataset, workers=WORKERS, channel="s3",
        # Every candidate runs its full epoch budget: the pipeline
        # compares learning rates, not Table 4's stopping rule.
        loss_threshold=None, max_epochs=epochs_per_job, seed=seed,
    )
    instance = "g3s.xlarge" if model in ("mobilenet", "resnet50") else "t2.medium"
    platforms = {
        "faas": base.vary(system="lambdaml"),
        "iaas": base.vary(system="pytorch", instance=instance),
    }
    return [
        s.named(
            f"{model}/{dataset} {platform},lr={s.kwargs['lr']:g}",
            case=f"{model}/{dataset}", platform=platform,
        ).point("table5")
        for platform, on_platform in platforms.items()
        for s in on_platform.grid(lr=grid)
    ]


def sweep_points(ctx: StudyContext = StudyContext()) -> list[SweepPoint]:
    """Both pipeline cases; ``ctx.max_epochs`` overrides epochs-per-job."""
    points = []
    for model, dataset in CASES:
        points += case_points(
            model, dataset, epochs_per_job=ctx.max_epochs or 10.0, seed=ctx.seed
        )
    return points


def aggregate(artifacts: list[dict]) -> list[dict]:
    """Replay the pipeline arithmetic over the per-job artifacts.

    Jobs are consumed in artifact (grid) order per (case, platform), so
    the float accumulations match the old sequential loop exactly.
    """
    grouped: dict[tuple[str, str], list[dict]] = {}
    for artifact in artifacts:
        key = (artifact["tags"]["case"], artifact["tags"]["platform"])
        grouped.setdefault(key, []).append(artifact)

    rows = []
    for (case, platform), jobs in grouped.items():
        model, dataset = case.split("/")
        deep = model in ("mobilenet", "resnet50")
        spec = get_spec(dataset)
        prep = _preprocess_seconds(spec.size_bytes, WORKERS)
        total_cost = 0.0
        accuracies = []
        if platform == "faas":
            # Jobs run as parallel serverless sweeps; wall time is the
            # slowest job, cost is the sum.
            durations = []
            for artifact in jobs:
                result = result_from_artifact(artifact)
                durations.append(result.duration_s)
                total_cost += result.cost_total
                accuracies.append(result.final_accuracy)
            runtime = prep + max(durations)
            total_cost += WORKERS * 3.0 * prep * DEFAULT_CATALOG.lambda_per_gb_second
        else:
            # One reserved cluster; start-up paid once, jobs sequential.
            startup = iaas_startup_seconds(WORKERS)
            instance = "g3s.xlarge" if deep else "t2.medium"
            job_seconds = 0.0
            for artifact in jobs:
                result = result_from_artifact(artifact)
                job_seconds += result.duration_s - result.startup_s
                accuracies.append(result.final_accuracy)
            runtime = prep + startup + job_seconds
            total_cost = (
                WORKERS * DEFAULT_CATALOG.ec2_price(instance) * runtime / 3600.0
            )
        best = max((a for a in accuracies if a is not None), default=None)
        rows.append({
            "workload": case,
            "platform": platform,
            "runtime_s": runtime,
            "accuracy": best,
            "cost": total_cost,
        })
    return rows


def _faas_vs_iaas(rows: list[dict], workload: str, holds) -> str | None:
    """``None`` when ``holds(faas_row, iaas_row)`` for ``workload``."""
    faas, iaas = (
        next(r for r in rows if (r["workload"], r["platform"]) == (workload, platform))
        for platform in ("faas", "iaas")
    )
    if holds(faas, iaas):
        return None
    return (f"{workload}: FaaS {faas['runtime_s']:.4g} s ${faas['cost']:.3g}, "
            f"IaaS {iaas['runtime_s']:.4g} s ${iaas['cost']:.3g}")


@study("table5")
class Table5Study:
    """end-to-end ML pipelines (normalise + lr grid search) on FaaS vs a reserved cluster"""

    points = staticmethod(sweep_points)

    aggregate = staticmethod(aggregate)
    report = (
        Table("Table 5 — ML pipeline (normalise + lr grid search)", (
            ("workload", "workload"),
            ("platform", "platform"),
            ("runtime(s)", "runtime_s"),
            ("best val acc", "accuracy"),
            ("cost($)", "cost"),
        )),
    )
    claims = (
        # Paper: FaaS 96 s / $0.47 vs IaaS 233 s / $0.31.
        Claim("table5.lr_faas_faster_not_cheaper", "Table 5, §5.4",
              lambda rows: _faas_vs_iaas(rows, "lr/higgs", lambda f, i: (
                  f["runtime_s"] < i["runtime_s"] and f["cost"] > i["cost"]))),
        # IaaS runs on GPUs here.
        Claim("table5.mobilenet_iaas_faster_and_cheaper", "Table 5, §5.4",
              lambda rows: _faas_vs_iaas(rows, "mobilenet/cifar10", lambda f, i: (
                  i["runtime_s"] < f["runtime_s"] and i["cost"] < f["cost"]))),
    )
