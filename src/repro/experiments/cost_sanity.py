"""Section 5.1.1 "COST" sanity check (after McSherry et al.).

Before trusting any scaled-up numbers, verify that the distributed
configurations actually beat a competent single-machine baseline: train
LR / SVM / KMeans on Higgs and MobileNet on Cifar10 with one worker and
with ten workers, on both FaaS and IaaS, and report the speed-ups.

The paper reports ~9-10x for the convex models on Higgs (10 workers)
and ~5-7x for MobileNet, i.e. scaling is real but sublinear.

Each case is three grid points (single-machine baseline, FaaS fleet,
IaaS cluster) run by the sweep orchestrator; the report pivots each
case's three rows into one line of speed-ups.
"""

from __future__ import annotations

from repro.config import DEFAULT_SEED
from repro.experiments.report import ratio
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, StudyContext, Table, pivot, study

CASES = [
    ("lr", "higgs"),
    ("svm", "higgs"),
    ("kmeans", "higgs"),
    ("mobilenet", "cifar10"),
]


def case_points(
    model: str, dataset: str, workers: int = 10, max_epochs: float | None = None,
    seed: int = DEFAULT_SEED,
) -> list[SweepPoint]:
    """Baseline + FaaS + IaaS points for one workload."""
    case = f"{model}/{dataset}"
    base = Scenario.workload(model, dataset, channel="s3", seed=seed)
    if max_epochs:
        base = base.vary(max_epochs=max_epochs)
    return [
        base.vary(system=system, workers=w)
        .named(f"{case} {role}", case=case, role=role)
        .point("cost_sanity")
        for role, system, w in (
            ("single", "pytorch", 1),
            ("faas", "lambdaml", workers),
            ("iaas", "pytorch", workers),
        )
    ]


def sweep_points(ctx: StudyContext = StudyContext()) -> list[SweepPoint]:
    points = []
    for model, dataset in CASES:
        points += case_points(model, dataset, max_epochs=ctx.max_epochs, seed=ctx.seed)
    return points


def _seconds(roles: dict, role: str) -> float | None:
    return roles[role]["duration_s"] if role in roles else None


def speedup(roles: dict, platform: str) -> float | None:
    """The 1-machine runtime over ``platform``'s (``roles``: role -> row).

    ``None`` when either run is missing.
    """
    return ratio(_seconds(roles, "single"), _seconds(roles, platform))


def _speedups_over(rows: list[dict], platform: str, bound: float) -> str | None:
    speedups = {case: speedup(roles, platform)
                for case, roles in pivot(rows, "case", "role").items()}
    return "; ".join(
        f"{case} {platform} {value:.3g}x"
        for case, value in speedups.items() if value is not None and not value > bound
    ) or None


@study("cost_sanity")
class CostSanityStudy:
    """COST sanity check: distributed FaaS/IaaS speed-ups over a single machine"""

    points = staticmethod(sweep_points)
    report = (
        Table("COST sanity check — 10 workers vs 1 machine", (
            ("workload", lambda roles: next(iter(roles.values()))["case"]),
            ("1-machine(s)", lambda roles: _seconds(roles, "single")),
            ("FaaS(s)", lambda roles: _seconds(roles, "faas")),
            ("IaaS(s)", lambda roles: _seconds(roles, "iaas")),
            ("FaaS speedup", lambda roles: speedup(roles, "faas")),
            ("IaaS speedup", lambda roles: speedup(roles, "iaas")),
        ), pivot=("case", "role")),
    )
    # Paper: ~9-10x on the convex Higgs workloads; scaling must be real.
    claims = (
        Claim("cost_sanity.faas_speedup_over_2x", "§5.1.1",
              lambda rows: _speedups_over(rows, "faas", 2.0)),
        Claim("cost_sanity.iaas_speedup_over_1x", "§5.1.1",
              lambda rows: _speedups_over(rows, "iaas", 1.0)),
    )
