"""Section 5.1.1 "COST" sanity check (after McSherry et al.).

Before trusting any scaled-up numbers, verify that the distributed
configurations actually beat a competent single-machine baseline: train
LR / SVM / KMeans on Higgs and MobileNet on Cifar10 with one worker and
with ten workers, on both FaaS and IaaS, and report the speed-ups.

The paper reports ~9-10x for the convex models on Higgs (10 workers)
and ~5-7x for MobileNet, i.e. scaling is real but sublinear.

Each case is three grid points (single-machine baseline, FaaS fleet,
IaaS cluster) run by the sweep orchestrator; :func:`aggregate` derives
the speed-up rows from the artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DEFAULT_SEED
from repro.experiments.report import format_table
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, study

CASES = [
    ("lr", "higgs"),
    ("svm", "higgs"),
    ("kmeans", "higgs"),
    ("mobilenet", "cifar10"),
]


@dataclass
class SanityRow:
    workload: str
    single_s: float
    faas_s: float
    iaas_s: float
    faas_speedup: float
    iaas_speedup: float


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


def sweep_points(
    max_epochs: float | None = None, seed: int = DEFAULT_SEED
) -> list[SweepPoint]:
    points = []
    for model, dataset in CASES:
        points += case_points(model, dataset, max_epochs=max_epochs, seed=seed)
    return points


def aggregate(artifacts: list[dict]) -> list[SanityRow]:
    """Derive the speed-up rows from artifacts (case order preserved)."""
    grouped: dict[str, dict[str, dict]] = {}
    for artifact in artifacts:
        tags = artifact["tags"]
        grouped.setdefault(tags["case"], {})[tags["role"]] = artifact
    rows = []
    for case, by_role in grouped.items():
        if {"single", "faas", "iaas"} - by_role.keys():
            continue  # interrupted sweep directory
        single_s = by_role["single"]["result"]["duration_s"]
        faas_s = by_role["faas"]["result"]["duration_s"]
        iaas_s = by_role["iaas"]["result"]["duration_s"]
        rows.append(
            SanityRow(
                workload=case,
                single_s=single_s,
                faas_s=faas_s,
                iaas_s=iaas_s,
                faas_speedup=single_s / faas_s,
                iaas_speedup=single_s / iaas_s,
            )
        )
    return rows


def format_report(rows: list[SanityRow]) -> str:
    return format_table(
        "COST sanity check — 10 workers vs 1 machine",
        ["workload", "1-machine(s)", "FaaS(s)", "IaaS(s)", "FaaS speedup", "IaaS speedup"],
        [
            [r.workload, r.single_s, r.faas_s, r.iaas_s, r.faas_speedup, r.iaas_speedup]
            for r in rows
        ],
    )


def _speedups_over(rows: list[SanityRow], platform: str, bound: float) -> str | None:
    return "; ".join(
        f"{r.workload} {platform} {getattr(r, f'{platform}_speedup'):.3g}x"
        for r in rows
        if not getattr(r, f"{platform}_speedup") > bound
    ) or None


@study("cost_sanity")
class CostSanityStudy:
    """COST sanity check: distributed FaaS/IaaS speed-ups over a single machine"""

    @staticmethod
    def points(ctx):
        return sweep_points(max_epochs=ctx.max_epochs, seed=ctx.seed)

    aggregate = staticmethod(aggregate)
    format_report = staticmethod(format_report)
    # Paper: ~9-10x on the convex Higgs workloads; scaling must be real.
    claims = (
        Claim("cost_sanity.faas_speedup_over_2x", "§5.1.1",
              lambda rows: _speedups_over(rows, "faas", 2.0)),
        Claim("cost_sanity.iaas_speedup_over_1x", "§5.1.1",
              lambda rows: _speedups_over(rows, "iaas", 1.0)),
    )
