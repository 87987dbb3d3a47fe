"""Figure 8: Synchronous vs Asynchronous protocols.

GA-SGD trains LR on Higgs (W=10), LR on RCV1 (W=5) and MobileNet on
Cifar10 (W=10) under BSP and under the S-ASP asynchronous protocol
(global model in S3, 1/sqrt(T) learning-rate decay).

Expected shape: the asynchronous runs progress faster per iteration
(2 storage operations per round instead of ~3w) but converge unstably —
stale read-modify-write cycles overwrite each other's progress — so BSP
reaches the threshold reliably while ASP oscillates above it.

The BSP/ASP pairs are a declarative grid (:func:`sweep_points`) run by
the sweep orchestrator; the report and the claims read its rows, one per
artifact, loss-vs-time curves included.
"""

from __future__ import annotations

from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, Series, StudyContext, Table, pivot, study

CASES = [
    # (model, dataset, workers)
    ("lr", "higgs", 10),
    ("lr", "rcv1", 5),
    ("mobilenet", "cifar10", 10),
]
PROTOCOL_NAMES = {"bsp": "BSP", "asp": "S-ASP"}


def sweep_points(ctx: StudyContext = StudyContext()) -> list[SweepPoint]:
    """One BSP and one S-ASP point per (model, dataset, W) case."""
    points = []
    for model, dataset, workers in CASES:
        label = f"{model}/{dataset},W={workers}"
        base = Scenario.workload(
            model, dataset, algorithm="ga_sgd", system="lambdaml",
            workers=workers, channel="s3",
            # Mild straggling amplifies staleness, as on real Lambda.
            straggler_jitter=0.3, seed=ctx.seed,
        )
        base = base.vary(max_epochs=ctx.max_epochs or min(base.kwargs["max_epochs"], 20))
        points += [
            base.vary(protocol=protocol)
            .named(f"{label} {protocol}", case=label, protocol=protocol)
            .point("fig8")
            for protocol in ("bsp", "asp")
        ]
    return points


def _pace(row: dict) -> float:
    return row["duration_s"] / max(row["epochs"], 1e-9)


def _every_case(rows, holds) -> str | None:
    """``None`` when ``holds(asp, bsp)`` in every case that ran both."""
    complaints = []
    for case, runs in pivot(rows, "case", "protocol").items():
        asp, bsp = runs.get("asp"), runs.get("bsp")
        if asp and bsp and not holds(asp, bsp):
            complaints.append(
                f"{case}: ASP {_pace(asp):.3g} s/epoch, loss {asp['final_loss']:.4g}; "
                f"BSP {_pace(bsp):.3g} s/epoch, loss {bsp['final_loss']:.4g}"
            )
    return "; ".join(complaints) or None


@study("fig8")
class Fig8Study:
    """BSP vs S-ASP on LR/Higgs, LR/RCV1, MobileNet/Cifar10"""

    points = staticmethod(sweep_points)
    report = (
        Table("Figure 8 — synchronization protocols (GA-SGD)", (
            ("workload", "case"), ("protocol", lambda r: PROTOCOL_NAMES[r["protocol"]]),
            ("converged", "converged"), ("loss", "final_loss"), ("time(s)", "duration_s"),
            ("epochs", "epochs"),
        )),
        Series("Loss vs time", lambda r: f"{r['case']} {PROTOCOL_NAMES[r['protocol']]}"),
    )
    claims = (
        # Two storage operations per ASP round instead of ~3w per BSP round...
        Claim("fig8.asp_faster_per_epoch", "Fig. 8",
              lambda r: _every_case(r, lambda asp, bsp: _pace(asp) < _pace(bsp))),
        # ...but statistically no better: it never beats BSP's loss.
        Claim("fig8.asp_no_better_loss", "Fig. 8", lambda r: _every_case(
            r, lambda asp, bsp: asp["final_loss"] >= bsp["final_loss"] - 5e-3)),
    )
