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
``stored_item_bytes`` arithmetic the simulated store enforces) and the
report prints them as N/A.
"""

from __future__ import annotations

from repro.config import DEFAULT_SEED
from repro.experiments.report import ratio
from repro.models.zoo import get_model_info
from repro.storage.services import DYNAMODB_MAX_ITEM_BYTES, DynamoDBStore
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, StudyContext, Table, pivot, study

CHANNELS = ("s3", "memcached", "dynamodb")
# The two relative measures of a Table-1 cell, by the row field each divides.
MEASURES = {"rel_cost": "cost_total", "slowdown": "duration_s"}

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
def sweep_points(ctx: StudyContext = StudyContext()) -> list[SweepPoint]:
    max_epochs, seed = ctx.max_epochs, ctx.seed
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


def relative(cells: dict, channel: str, measure: str) -> float | None:
    """``channel``'s cost or runtime over S3's in one table row (N/A: ``None``).

    ``cells`` is the row's channel -> artifact row; ``measure`` a key of
    :data:`MEASURES`. A missing run, ``channel``'s or S3's, is N/A.
    """
    field = MEASURES[measure]
    measured = {name: cell[field] for name, cell in cells.items()}
    return ratio(measured.get(channel), measured.get("s3"))


def _cell(rows: list[dict], workload: str, workers: int, column: str,
          channel: str, holds) -> str | None:
    """``None`` when ``holds`` the row's ``column`` entry (N/A never holds)."""
    cells = pivot(rows, "row", "channel")[f"{workload},W={workers}"]
    value = relative(cells, channel, column)
    if value is not None and holds(value):
        return None
    shown = "N/A" if value is None else f"{value:.3g}"
    return f"{workload},W={workers} {channel} {column} {shown}"


def _dynamodb_cannot_hold_mobilenet(rows) -> str | None:
    # The 12 MB model exceeds DynamoDB's 400 KB item limit: the cell is N/A.
    value = relative(pivot(rows, "row", "channel")["mobilenet/cifar10,W=10"],
                     "dynamodb", "slowdown")
    return None if value is None else f"mobilenet/cifar10,W=10 dynamodb slowdown {value:.3g}"


@study("table1")
class Table1Study:
    """channel comparison (S3 / Memcached / DynamoDB / VM-PS) slowdown + relative cost"""

    points = staticmethod(sweep_points)
    report = (
        Table("Table 1 — channel cost/slowdown relative to S3 (>1 means S3 wins)", (
            ("workload", lambda cells: next(iter(cells.values()))["row"].rpartition(",W=")[0]),
            ("W", lambda cells: next(iter(cells.values()))["workers"]),
            *(
                (f"{channel} {header}", lambda cells, c=channel, m=measure: relative(cells, c, m))
                for channel in ("memcached", "dynamodb", "vm-ps")
                for header, measure in (("cost", "rel_cost"), ("slow", "slowdown"))
            ),
        ), pivot=("row", "channel")),
    )
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
