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

:func:`overhead_rows` adds to each artifact's row its runtime/cost
overhead relative to that series' fault-free baseline point; the report
prints one curve per series.
"""

from __future__ import annotations

from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import StudyContext, Table, rows, study

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


def sweep_points(ctx: StudyContext = StudyContext()) -> list[SweepPoint]:
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
        loss_threshold=None, max_epochs=ctx.max_epochs or EPOCH_BUDGET, seed=ctx.seed,
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


def overhead_rows(artifacts: list[dict]) -> list[dict]:
    """The row frame, each row with ``overhead_s`` / ``overhead_cost``.

    Overheads are relative to the series' fault-free row; the storage and
    interval series borrow the faas-crash baseline (the same config at
    zero rates). A series without a baseline shows no overhead.
    """
    frame = rows(artifacts)
    baselines = {
        r["series"]: r for r in frame if r["crash_rate"] == 0 and r["storage_error_rate"] == 0
    }
    if "faas-crash" in baselines:
        for series in ("faas-storage", "faas-interval"):
            baselines.setdefault(series, baselines["faas-crash"])
    for row in frame:
        base = baselines.get(row["series"], row)
        row["overhead_s"] = row["duration_s"] - base["duration_s"]
        row["overhead_cost"] = row["cost_total"] - base["cost_total"]
    return frame


def _fault_rate(row: dict) -> str:
    if row["series"] == "faas-storage":
        return f"{row['storage_error_rate']:g}"
    if row["series"] == "faas-interval":
        return f"every {row['checkpoint_interval']} @ {row['crash_rate']:g}/h"
    return f"{row['crash_rate']:g}/h"


@study("figR")
class FigRStudy:
    """cost of reliability: runtime/cost overhead vs crash and storage-error rates, FaaS-with-checkpoints vs IaaS-restart"""

    points = staticmethod(sweep_points)
    aggregate = staticmethod(overhead_rows)
    group = "series"
    report = (
        Table("Figure R — cost of reliability, {}", (
            ("fault rate", _fault_rate), ("runtime(s)", "duration_s"), ("cost($)", "cost_total"),
            ("overhead(s)", "overhead_s"), ("overhead($)", "overhead_cost"),
            ("crashes", lambda r: r["events"].get("crashes", 0)),
            ("recoveries", lambda r: r["events"].get("restarts", 0)
             or r["events"].get("reincarnations", 0)),
            ("retries", lambda r: r["events"].get("storage_retries", 0)),
        )),
    )
