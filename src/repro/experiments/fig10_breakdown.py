"""Figure 10: runtime breakdown (LR on Higgs, W=10, 10 epochs).

For each system we run exactly ten epochs (no early stopping) and
report the per-phase simulated time of the slowest worker: start-up,
data loading, computation, communication, the total, and the total
excluding start-up. The paper's measured seconds are :data:`PAPER_SECONDS`.

The four systems form a declarative grid (:func:`sweep_points`) run by
the sweep orchestrator; :func:`aggregate` rebuilds the breakdown rows
from per-point JSON artifacts (the time breakdown is persisted in
full). Note the HybridPS point is timing-coupled, so a sweep trains
it exact and the other three through record/replay.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DEFAULT_SEED
from repro.core.results import RunResult
from repro.experiments.report import format_table
from repro.sweep.artifacts import result_from_artifact
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, study

SYSTEMS = ("pytorch", "angel", "hybridps", "lambdaml")
DEFAULT_EPOCHS = 10.0
# The paper's seconds per system (startup, load, compute, comm, total),
# and how far (relative) a simulated phase may sit from them.
PAPER_SECONDS = {
    "pytorch": (132, 9, 80, 0.9, 221),
    "angel": (457, 35, 125, 1.1, 618),
    "hybridps": (123, 9, 80, 1.0, 213),
    "lambdaml": (1, 9, 80, 2, 92),
}
PHASE_TOLERANCE = {"startup_s": 0.35, "load_s": 0.6, "compute_s": 0.4, "total_s": 0.4}


@dataclass
class BreakdownRow:
    system: str
    startup_s: float
    load_s: float
    compute_s: float
    comm_s: float
    total_s: float
    total_without_startup_s: float


def sweep_points(
    max_epochs: float | None = None,
    workers: int = 10,
    seed: int = DEFAULT_SEED,
) -> list[SweepPoint]:
    """One fixed-epoch point per system (no early stopping)."""
    epochs = max_epochs or DEFAULT_EPOCHS
    base = Scenario.workload(
        "lr", "higgs", workers=workers, channel="s3",
        loss_threshold=None,  # run the full epoch budget
        max_epochs=epochs, seed=seed,
    )
    return [
        # The breakdown fixes epoch count, so MA-SGD (one exchange per
        # epoch) matches the paper's per-epoch communication.
        base.vary(system=system, algorithm="ga_sgd" if system == "hybridps" else "ma_sgd")
        .named(f"{system},W={workers},{epochs:g}ep", system=system)
        .point("fig10")
        for system in SYSTEMS
    ]


def aggregate(artifacts: list[dict]) -> list[BreakdownRow]:
    """Rebuild the breakdown rows from sweep artifacts (point order)."""
    return [
        _to_row(artifact["tags"]["system"], result_from_artifact(artifact))
        for artifact in artifacts
    ]


def _to_row(system: str, result: RunResult) -> BreakdownRow:
    b = result.breakdown
    return BreakdownRow(
        system=system,
        startup_s=b.get("startup"),
        load_s=b.get("load"),
        # Pure operation time, as the paper reports it; peer-waiting and
        # polling overhead shows up only in the total.
        comm_s=b.get("comm"),
        compute_s=b.get("compute"),
        total_s=result.duration_s,
        total_without_startup_s=result.duration_without_startup_s,
    )


def format_report(rows: list[BreakdownRow]) -> str:
    return format_table(
        "Figure 10 — time breakdown (LR, Higgs, W=10, 10 epochs)",
        ["system", "startup", "load", "compute", "comm", "total", "total w/o startup"],
        [
            [r.system, r.startup_s, r.load_s, r.compute_s, r.comm_s, r.total_s,
             r.total_without_startup_s]
            for r in rows
        ],
    )


def _phases_near_paper(rows: list[BreakdownRow]) -> str | None:
    by_system = {r.system: r for r in rows}
    phases = ("startup_s", "load_s", "compute_s", "comm_s", "total_s")
    return "; ".join(
        f"{system} {phase} {getattr(by_system[system], phase):.3g} vs paper {paper}"
        for system, seconds in PAPER_SECONDS.items()
        for phase, paper in zip(phases, seconds)
        if phase in PHASE_TOLERANCE
        and not abs(getattr(by_system[system], phase) - paper) <= PHASE_TOLERANCE[phase] * paper
    ) or None


def _totals(rows: list[BreakdownRow], holds) -> str | None:
    """``None`` when ``holds(total, total_without_startup)``, each keyed by system."""
    total = {r.system: r.total_s for r in rows}
    rest = {r.system: r.total_without_startup_s for r in rows}
    if holds(total, rest):
        return None
    return ", ".join(f"{s} {total[s]:.4g} s ({rest[s]:.4g} s w/o startup)" for s in SYSTEMS)


@study("fig10")
class Fig10Study:
    """per-phase runtime breakdown (startup/load/compute/comm) across all four systems"""

    @staticmethod
    def points(ctx):
        return sweep_points(max_epochs=ctx.max_epochs, seed=ctx.seed)

    aggregate = staticmethod(aggregate)
    format_report = staticmethod(format_report)
    claims = (
        Claim("fig10.phases_near_paper", "Fig. 10", _phases_near_paper),
        Claim("fig10.lambdaml_hybrid_angel_order", "Fig. 10, §5.2", lambda r: _totals(
            r, lambda total, _: total["lambdaml"] < total["hybridps"] < total["angel"])),
        Claim("fig10.lambdaml_no_faster_past_startup", "Fig. 10, §5.2", lambda r: _totals(
            r, lambda _, rest: rest["lambdaml"] >= rest["pytorch"])),
    )
