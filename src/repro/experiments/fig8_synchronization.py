"""Figure 8: Synchronous vs Asynchronous protocols.

GA-SGD trains LR on Higgs (W=10), LR on RCV1 (W=5) and MobileNet on
Cifar10 (W=10) under BSP and under the S-ASP asynchronous protocol
(global model in S3, 1/sqrt(T) learning-rate decay).

Expected shape: the asynchronous runs progress faster per iteration
(2 storage operations per round instead of ~3w) but converge unstably —
stale read-modify-write cycles overwrite each other's progress — so BSP
reaches the threshold reliably while ASP oscillates above it.

The BSP/ASP pairs are a declarative grid (:func:`sweep_points`) run by
the sweep orchestrator; :func:`aggregate` rebuilds the comparisons —
including the loss-vs-time curves — from per-point JSON artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DEFAULT_SEED
from repro.core.results import RunResult
from repro.experiments.report import format_series, format_table
from repro.sweep.artifacts import result_from_artifact
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, study

CASES = [
    # (model, dataset, workers)
    ("lr", "higgs", 10),
    ("lr", "rcv1", 5),
    ("mobilenet", "cifar10", 10),
]


@dataclass
class SyncComparison:
    label: str
    bsp: RunResult
    asp: RunResult


def sweep_points(
    max_epochs: float | None = None, seed: int = DEFAULT_SEED
) -> list[SweepPoint]:
    """One BSP and one S-ASP point per (model, dataset, W) case."""
    points = []
    for model, dataset, workers in CASES:
        label = f"{model}/{dataset},W={workers}"
        base = Scenario.workload(
            model, dataset, algorithm="ga_sgd", system="lambdaml",
            workers=workers, channel="s3",
            # Mild straggling amplifies staleness, as on real Lambda.
            straggler_jitter=0.3, seed=seed,
        )
        base = base.vary(max_epochs=max_epochs or min(base.kwargs["max_epochs"], 20))
        points += [
            base.vary(protocol=protocol)
            .named(f"{label} {protocol}", case=label, protocol=protocol)
            .point("fig8")
            for protocol in ("bsp", "asp")
        ]
    return points


def aggregate(artifacts: list[dict]) -> list[SyncComparison]:
    """Pair BSP/ASP artifacts back into per-case comparisons.

    Cases missing one side of the pair (an interrupted sweep directory)
    are skipped — like the other aggregators, any artifact subset is
    renderable, just incompletely.
    """
    paired: dict[str, dict[str, RunResult]] = {}
    for artifact in artifacts:
        tags = artifact["tags"]
        paired.setdefault(tags["case"], {})[tags["protocol"]] = result_from_artifact(
            artifact
        )
    return [
        SyncComparison(label=case, bsp=results["bsp"], asp=results["asp"])
        for case, results in paired.items()
        if "bsp" in results and "asp" in results
    ]


def format_report(comparisons: list[SyncComparison]) -> str:
    rows = []
    series = {}
    for comp in comparisons:
        for name, result in (("BSP", comp.bsp), ("S-ASP", comp.asp)):
            rows.append(
                [
                    comp.label,
                    name,
                    result.converged,
                    result.final_loss,
                    result.duration_s,
                    result.epochs,
                ]
            )
            series[f"{comp.label} {name}"] = result.loss_curve()
    table = format_table(
        "Figure 8 — synchronization protocols (GA-SGD)",
        ["workload", "protocol", "converged", "loss", "time(s)", "epochs"],
        rows,
    )
    return table + "\n\n" + format_series("Loss vs time", series)


def _pace(result: RunResult) -> float:
    return result.duration_s / max(result.epochs, 1e-9)


def _every_case(comparisons, holds) -> str | None:
    """``None`` when ``holds(asp, bsp)`` in every case."""
    return "; ".join(
        f"{c.label}: ASP {_pace(c.asp):.3g} s/epoch, loss {c.asp.final_loss:.4g}; "
        f"BSP {_pace(c.bsp):.3g} s/epoch, loss {c.bsp.final_loss:.4g}"
        for c in comparisons
        if not holds(c.asp, c.bsp)
    ) or None


@study("fig8")
class Fig8Study:
    """BSP vs S-ASP on LR/Higgs, LR/RCV1, MobileNet/Cifar10"""

    @staticmethod
    def points(ctx):
        return sweep_points(max_epochs=ctx.max_epochs, seed=ctx.seed)

    aggregate = staticmethod(aggregate)
    format_report = staticmethod(format_report)
    claims = (
        # Two storage operations per ASP round instead of ~3w per BSP round...
        Claim("fig8.asp_faster_per_epoch", "Fig. 8",
              lambda r: _every_case(r, lambda asp, bsp: _pace(asp) < _pace(bsp))),
        # ...but statistically no better: it never beats BSP's loss.
        Claim("fig8.asp_no_better_loss", "Fig. 8", lambda r: _every_case(
            r, lambda asp, bsp: asp.final_loss >= bsp.final_loss - 5e-3)),
    )
