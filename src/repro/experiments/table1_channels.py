"""Table 1: communication channels — S3 vs Memcached vs DynamoDB vs VM-PS.

For each workload we run the identical training job over each channel
and report the *slowdown* and *relative cost* with respect to S3
(values > 1 mean S3 is faster / cheaper). DynamoDB cells come out N/A
whenever the model exceeds its 400 KB item limit, reproducing the
paper's "DynamoDB cannot handle a large model such as MobileNet".

The qualitative expectations: Memcached and the VM parameter server pay
startup (minutes) that dominates short jobs, making S3 cheaper and
faster end-to-end; on long jobs (MobileNet) Memcached's low latency
wins; DynamoDB tracks S3 closely for tiny models.

Each table row is a declarative grid (:func:`workload_points`, one
point per feasible channel) run by the sweep orchestrator; infeasible
DynamoDB cells are excluded at grid-declaration time (the same
``stored_item_bytes`` arithmetic the simulated store enforces) and
:func:`aggregate` renders them as N/A.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DEFAULT_SEED
from repro.experiments.report import format_table, ratio
from repro.models.zoo import get_model_info
from repro.storage.services import DYNAMODB_MAX_ITEM_BYTES, DynamoDBStore
from repro.sweep.artifacts import result_from_artifact
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, study

CHANNELS = ("s3", "memcached", "dynamodb")


@dataclass
class ChannelRow:
    """One Table-1 row: a workload across channels, relative to S3."""

    workload: str
    workers: int
    s3_time: float
    s3_cost: float
    slowdown: dict[str, float | None]
    rel_cost: dict[str, float | None]


def dynamodb_feasible(model: str, dataset: str, k: int = 10) -> bool:
    """Can the model/gradient item fit DynamoDB's 400 KB limit?

    Mirrors :meth:`DynamoDBStore.stored_item_bytes` exactly, so a grid
    excludes precisely the points the simulated store would reject with
    ``ItemTooLargeError`` mid-run.
    """
    info = get_model_info(model, dataset, k=k)
    store = DynamoDBStore()
    return store.stored_item_bytes(info.param_bytes) <= DYNAMODB_MAX_ITEM_BYTES


def workload_points(
    model: str,
    dataset: str,
    workers: int,
    k: int = 10,
    max_epochs: float | None = None,
    seed: int = DEFAULT_SEED,
) -> list[SweepPoint]:
    """One point per feasible channel (plus VM-PS) for one table row."""
    row = f"{model}/{dataset}" + (f",k={k}" if model == "kmeans" else "") + f",W={workers}"
    base = Scenario.workload(model, dataset, system="lambdaml", workers=workers, seed=seed)
    if model == "kmeans":
        # The k=1000 row is the paper's large-model k-means, not Table 4's k.
        base = base.vary(k=k)
    if max_epochs:
        base = base.vary(max_epochs=max_epochs)
    cells = [
        (channel, base.vary(channel=channel))
        for channel in CHANNELS
        # An infeasible DynamoDB cell is N/A in the paper's table.
        if channel != "dynamodb" or dynamodb_feasible(model, dataset, k=k)
    ]
    if base.kwargs["algorithm"] != "em":
        # The VM-PS column trains with Cirrus-style GA-SGD pushes.
        cells.append(("vm-ps", base.vary(system="hybridps", algorithm="ga_sgd")))
    return [
        s.named(f"{row} {label}", row=row, channel=label, workers=str(workers)).point("table1")
        for label, s in cells
    ]


# The default rows (scaled: MobileNet capped at 6 epochs, no W=50 row).
def sweep_points(
    max_epochs: float | None = None, seed: int = DEFAULT_SEED
) -> list[SweepPoint]:
    w_small, w_large = (10, 50)
    points = []
    points += workload_points("lr", "higgs", w_small, max_epochs=max_epochs, seed=seed)
    points += workload_points("lr", "higgs", w_large, max_epochs=max_epochs, seed=seed)
    points += workload_points(
        "kmeans", "higgs", w_large, k=10, max_epochs=max_epochs, seed=seed
    )
    points += workload_points(
        "kmeans", "higgs", w_large, k=1000, max_epochs=max_epochs or 10, seed=seed
    )
    points += workload_points(
        "mobilenet", "cifar10", 10, max_epochs=max_epochs or 6, seed=seed
    )
    return points


def aggregate(artifacts: list[dict]) -> list[ChannelRow]:
    """Rebuild the table rows from sweep artifacts (row order preserved)."""
    grouped: dict[str, dict[str, dict]] = {}
    for artifact in artifacts:
        tags = artifact["tags"]
        grouped.setdefault(tags["row"], {})[tags["channel"]] = artifact
    rows = []
    for row_label, by_channel in grouped.items():
        if "s3" not in by_channel:
            continue  # interrupted sweep: the baseline cell is missing
        s3 = result_from_artifact(by_channel["s3"])
        names = [c for c in CHANNELS if c != "s3"] + ["vm-ps"]
        slowdown: dict[str, float | None] = {}
        rel_cost: dict[str, float | None] = {}
        for name in names:
            artifact = by_channel.get(name)
            result = result_from_artifact(artifact) if artifact else None
            slowdown[name] = ratio(result.duration_s if result else None, s3.duration_s)
            rel_cost[name] = ratio(result.cost_total if result else None, s3.cost_total)
        workload_label, _, workers_label = row_label.rpartition(",W=")
        rows.append(
            ChannelRow(
                workload=workload_label,
                workers=int(workers_label),
                s3_time=s3.duration_s,
                s3_cost=s3.cost_total,
                slowdown=slowdown,
                rel_cost=rel_cost,
            )
        )
    return rows


def format_report(rows: list[ChannelRow]) -> str:
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.workload,
                row.workers,
                row.rel_cost.get("memcached"),
                row.slowdown.get("memcached"),
                row.rel_cost.get("dynamodb"),
                row.slowdown.get("dynamodb"),
                row.rel_cost.get("vm-ps"),
                row.slowdown.get("vm-ps"),
            ]
        )
    return format_table(
        "Table 1 — channel cost/slowdown relative to S3 (>1 means S3 wins)",
        [
            "workload",
            "W",
            "memcached cost",
            "memcached slow",
            "dynamodb cost",
            "dynamodb slow",
            "vm-ps cost",
            "vm-ps slow",
        ],
        table_rows,
    )


def _row(rows: list[ChannelRow], workload: str, workers: int) -> ChannelRow:
    return next(r for r in rows if (r.workload, r.workers) == (workload, workers))


def _cell(rows: list[ChannelRow], workload: str, workers: int, column: str,
          channel: str, holds) -> str | None:
    """``None`` when ``holds`` the row's ``column`` entry (N/A never holds)."""
    value = getattr(_row(rows, workload, workers), column)[channel]
    if value is not None and holds(value):
        return None
    shown = "N/A" if value is None else f"{value:.3g}"
    return f"{workload},W={workers} {channel} {column} {shown}"


def _dynamodb_cannot_hold_mobilenet(rows) -> str | None:
    # The 12 MB model exceeds DynamoDB's 400 KB item limit: the cell is N/A.
    value = _row(rows, "mobilenet/cifar10", 10).slowdown["dynamodb"]
    return None if value is None else f"mobilenet/cifar10,W=10 dynamodb slowdown {value:.3g}"


@study("table1")
class Table1Study:
    """channel comparison (S3 / Memcached / DynamoDB / VM-PS) slowdown + relative cost"""

    @staticmethod
    def points(ctx):
        return sweep_points(max_epochs=ctx.max_epochs, seed=ctx.seed)

    aggregate = staticmethod(aggregate)
    format_report = staticmethod(format_report)
    claims = (
        # Memcached pays its start-up on a short job (paper: cost 5x, slowdown 4.17x).
        Claim("table1.memcached_loses_short_jobs", "Table 1, §4.3", lambda rows: _cell(
            rows, "lr/higgs", 10, "slowdown", "memcached", lambda v: v > 1.3
        ) or _cell(rows, "lr/higgs", 10, "rel_cost", "memcached", lambda v: v > 1.3)),
        # Paper: ~0.95 cost and 0.83 slowdown.
        Claim("table1.dynamodb_tracks_s3_on_tiny_models", "Table 1, §4.3",
              lambda rows: _cell(rows, "lr/higgs", 10, "slowdown", "dynamodb",
                                 lambda v: 0.5 < v < 1.2)),
        # Paper: cost 4.7, slowdown 3.85.
        Claim("table1.vm_ps_pays_its_boot", "Table 1, §4.3",
              lambda rows: _cell(rows, "lr/higgs", 10, "slowdown", "vm-ps",
                                 lambda v: v > 1.3)),
        # Paper: slowdown 0.77, cost 0.9.
        Claim("table1.memcached_wins_long_jobs", "Table 1, §4.3",
              lambda rows: _cell(rows, "mobilenet/cifar10", 10, "slowdown", "memcached",
                                 lambda v: v < 1.0)),
        Claim("table1.dynamodb_cannot_hold_mobilenet", "Table 1, §4.3",
              _dynamodb_cannot_hold_mobilenet),
    )
