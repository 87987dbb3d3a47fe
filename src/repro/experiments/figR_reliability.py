"""Figure R: the cost of reliability — overhead vs crash rate.

This experiment is not in the paper; it extends its FaaS-vs-IaaS
argument to the axis the follow-ups (MLLess, SMLT) showed is
first-order: what does surviving failures *cost*? Two recovery
disciplines run over the same crash-rate grid on the Table-4 LR/Higgs
workload:

* **FaaS + per-round checkpoints (LambdaML)** — every round boundary
  writes a checkpoint to S3; a crashed function's successor pays a
  cold start, a data/ checkpoint reload, and re-executes at most one
  round. Overhead grows smoothly with the crash rate.
* **IaaS restart-from-scratch (distributed PyTorch)** — no
  checkpoints: any worker crash restarts the whole job. Cheap at rate
  zero, catastrophic as the MTTF approaches the job duration.

A third series sweeps the transient storage-error rate (FaaS only):
failed puts/gets retry under exponential backoff, billed per attempt.

A fourth series holds the FaaS crash rate fixed and sweeps
``checkpoint_interval``: checkpointing every N-th round boundary pays
less overhead per round but re-executes up to N rounds per crash — the
classic checkpoint-frequency trade-off, measured in the same
overhead-vs-baseline units as the other curves.

Every point shares one statistical fingerprint — crash and retry axes
are systems axes — so a sweep of the grid records *one* exact
trace and replays the entire grid in milliseconds per point. Each
artifact's ``result.events`` carries the reliability story (crashes,
reincarnations/restarts, checkpoints, retries).

``aggregate()`` reduces artifacts to per-series curves of runtime/cost
overhead relative to that series' fault-free baseline point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import DEFAULT_SEED
from repro.experiments.report import format_table
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import study

# Crashes per worker per simulated hour. An LR/Higgs job at W=10 runs
# a few simulated minutes, so the top FaaS rates put several crashes
# inside one run. The IaaS grid stops earlier by design: with no
# checkpoints, an attempt only succeeds if *no* worker crashes for the
# whole job — survival decays as exp(-D*w/mttf), so rates that are
# routine for checkpointed FaaS push an IaaS job into hundreds of
# simulated restarts. That asymmetry IS the figure.
FAAS_CRASH_RATES = (0.0, 2.0, 4.0, 8.0, 16.0, 30.0, 60.0)
IAAS_CRASH_RATES = (0.0, 1.0, 2.0, 4.0, 8.0)
# Per-operation transient failure probabilities for the retry series.
STORAGE_ERROR_RATES = (0.0, 0.002, 0.01, 0.05)
# Checkpoint cadences swept at INTERVAL_CRASH_RATE crashes/worker/hour.
# Interval 1 is omitted from the grid: it is byte-for-byte the
# faas-crash point at that rate (checkpoint_interval defaults to 1),
# and duplicate hashes collapse into the first series anyway.
CHECKPOINT_INTERVALS = (2, 4, 8)
INTERVAL_CRASH_RATE = 8.0
WORKERS = 10
# Fixed statistical budget for every point: the epochs the Table-4
# threshold run actually uses. No early stop — identical work per
# point keeps the overhead comparison like for like, and bounds the
# job length so IaaS restart-from-scratch survives the top crash rate
# (survival decays as exp(-D*w/mttf); at the 60-epoch workload
# ceiling the rate-8 point would need ~e^7 attempts).
EPOCH_BUDGET = 10


@dataclass
class ReliabilityPoint:
    series: str
    crash_rate: float
    storage_error_rate: float
    checkpoint_interval: int
    runtime_s: float
    cost: float
    overhead_s: float  # vs the series' zero-fault baseline
    overhead_cost: float
    events: dict


@dataclass
class ReliabilityCurve:
    series: str  # faas-crash | iaas-crash | faas-storage
    points: list[ReliabilityPoint] = field(default_factory=list)


def sweep_points(
    max_epochs: float | None = None, seed: int = DEFAULT_SEED
) -> list[SweepPoint]:
    """Declarative grid for the cost-of-reliability curves."""
    base = Scenario.workload(
        "lr", "higgs", workers=WORKERS,
        # admm_scans=2 gives the job a real round structure (5 exchange
        # rounds over EPOCH_BUDGET instead of 1) — without it a crash
        # always re-executes the whole job and the checkpoint-cadence
        # series would be vacuous.
        admm_scans=2,
        # Not Table 4's stopping rule: a fixed budget, no early stop
        # (see EPOCH_BUDGET).
        loss_threshold=None, max_epochs=max_epochs or EPOCH_BUDGET, seed=seed,
    )
    faas = base.vary(system="lambdaml", channel="s3")
    scenarios = [
        s.named(
            f"faas,crash_rate={s.kwargs['crash_rate']:g}/h",
            series="faas-crash", system="faas",
        )
        for s in faas.grid(crash_rate=FAAS_CRASH_RATES)
    ]
    scenarios += [
        s.named(
            f"iaas,crash_rate={s.kwargs['crash_rate']:g}/h",
            series="iaas-crash", system="iaas",
        )
        for s in base.vary(system="pytorch").grid(crash_rate=IAAS_CRASH_RATES)
    ]
    scenarios += [
        s.named(
            f"faas,storage_error_rate={s.kwargs['storage_error_rate']:g}",
            series="faas-storage", system="faas",
        )
        for s in faas.grid(storage_error_rate=STORAGE_ERROR_RATES)
        if s.kwargs["storage_error_rate"] > 0  # rate 0 already in faas-crash
    ]
    scenarios += [
        s.named(
            f"faas,checkpoint_interval={s.kwargs['checkpoint_interval']},"
            f"crash_rate={INTERVAL_CRASH_RATE:g}/h",
            series="faas-interval", system="faas",
        )
        for s in faas.vary(crash_rate=INTERVAL_CRASH_RATE).grid(
            checkpoint_interval=CHECKPOINT_INTERVALS
        )
    ]
    return [s.point("figR") for s in scenarios]


def aggregate(artifacts: list[dict]) -> list[ReliabilityCurve]:
    """Rebuild the reliability curves from per-point sweep artifacts."""
    curves: dict[str, ReliabilityCurve] = {}
    for artifact in artifacts:
        series = artifact["tags"]["series"]
        curve = curves.setdefault(series, ReliabilityCurve(series=series))
        config = artifact["config"]
        res = artifact["result"]
        curve.points.append(
            ReliabilityPoint(
                series=series,
                crash_rate=config["crash_rate"],
                storage_error_rate=config["storage_error_rate"],
                checkpoint_interval=config.get("checkpoint_interval", 1),
                runtime_s=res["duration_s"],
                cost=res["cost_total"],
                overhead_s=0.0,
                overhead_cost=0.0,
                events=dict(res.get("events", {})),
            )
        )
    # Overheads are relative to the series' fault-free point; the
    # storage series borrows the faas-crash baseline (same config at
    # zero rates).
    baselines: dict[str, ReliabilityPoint] = {}
    for curve in curves.values():
        for point in curve.points:
            if point.crash_rate == 0 and point.storage_error_rate == 0:
                baselines[curve.series] = point
    faas_base = baselines.get("faas-crash")
    if faas_base is not None:
        # Both borrowed series share the faas-crash zero-fault config.
        baselines.setdefault("faas-storage", faas_base)
        baselines.setdefault("faas-interval", faas_base)
    for curve in curves.values():
        base = baselines.get(curve.series)
        if base is None:
            continue
        for point in curve.points:
            point.overhead_s = point.runtime_s - base.runtime_s
            point.overhead_cost = point.cost - base.cost
    return list(curves.values())


def format_report(curves: list[ReliabilityCurve]) -> str:
    blocks = []
    for curve in curves:
        rows = [
            [
                (
                    f"{p.storage_error_rate:g}"
                    if curve.series == "faas-storage"
                    else f"every {p.checkpoint_interval} @ {p.crash_rate:g}/h"
                    if curve.series == "faas-interval"
                    else f"{p.crash_rate:g}/h"
                ),
                p.runtime_s,
                p.cost,
                p.overhead_s,
                p.overhead_cost,
                p.events.get("crashes", 0),
                p.events.get("restarts", 0) or p.events.get("reincarnations", 0),
                p.events.get("storage_retries", 0),
            ]
            for p in curve.points
        ]
        blocks.append(
            format_table(
                f"Figure R — cost of reliability, {curve.series}",
                ["fault rate", "runtime(s)", "cost($)", "overhead(s)",
                 "overhead($)", "crashes", "recoveries", "retries"],
                rows,
            )
        )
    return "\n\n".join(blocks)


@study("figR")
class FigRStudy:
    """cost of reliability: runtime/cost overhead vs crash and storage-error rates, FaaS-with-checkpoints vs IaaS-restart"""

    @staticmethod
    def points(ctx):
        return sweep_points(max_epochs=ctx.max_epochs, seed=ctx.seed)

    aggregate = staticmethod(aggregate)
    format_report = staticmethod(format_report)
