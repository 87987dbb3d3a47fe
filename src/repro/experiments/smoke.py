"""The ``smoke`` study: a seconds-scale orchestrator + fault-plane probe.

Four fault-free systems points plus two fault-plane points (one
crash-injected, one with transient storage errors) on a heavily
down-scaled LR/Higgs workload. All six share one statistical
fingerprint, so a sweep of it records exactly one trace —
the cheapest end-to-end probe of both the two-phase orchestrator and
the fault plane's determinism contract. The test suite and CI's
sweep-smoke job run this grid.
"""

from __future__ import annotations

from repro.config import DEFAULT_SEED
from repro.experiments.report import format_table
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import study


def sweep_points(
    max_epochs: float | None = None, seed: int = DEFAULT_SEED
) -> list[SweepPoint]:
    """A 6-point grid that completes in seconds (heavily down-scaled)."""
    base = Scenario(
        model="lr", dataset="higgs", algorithm="admm", system="lambdaml",
        workers=4, data_scale=5000, loss_threshold=0.66,
        max_epochs=max_epochs or 2.0, seed=seed,
        tags={"series": "lr/higgs@1/5000", "system": "faas"},
    )
    scenarios = [
        s.named(f"{s.kwargs['channel']},{s.kwargs['pattern']},W=4")
        for s in base.grid(
            channel=("s3", "memcached"), pattern=("allreduce", "scatterreduce")
        )
    ]
    faulted = base.vary(channel="s3")
    scenarios += [
        faulted.vary(mttf_s=120.0).named("s3,allreduce,W=4,mttf=120s", faults="crash"),
        faulted.vary(storage_error_rate=0.02).named(
            "s3,allreduce,W=4,storage_err=2%", faults="storage"
        ),
    ]
    return [s.point("smoke") for s in scenarios]


def format_report(artifacts: list[dict]) -> str:
    rows = [
        [
            a["label"],
            a["result"]["duration_s"],
            a["result"]["cost_total"],
            a["result"]["final_loss"],
            a["result"]["converged"],
        ]
        for a in artifacts
    ]
    return format_table(
        "Smoke sweep — LR/Higgs at 1/5000 scale",
        ["point", "runtime(s)", "cost($)", "loss", "converged"],
        rows,
    )


@study("smoke")
class SmokeStudy:
    """seconds-scale orchestrator + fault-plane probe (down-scaled LR/Higgs)"""

    @staticmethod
    def points(ctx):
        return sweep_points(max_epochs=ctx.max_epochs, seed=ctx.seed)

    aggregate = staticmethod(lambda artifacts: artifacts)
    format_report = staticmethod(format_report)
