"""Figure 7: comparison of distributed optimization algorithms.

For LR/SVM on Higgs and MobileNet on Cifar10 we train with GA-SGD,
MA-SGD and ADMM (where valid) on LambdaML over ElastiCache-Memcached,
at a small and a large worker count, reporting

* loss vs wall-clock time,
* loss vs number of communication rounds, and
* the speed-up of the large-worker configuration over the small one —
  the paper's headline being that ADMM scales (~16x), MA-SGD scales
  modestly (~3.5x) and GA-SGD anti-scales (~0.08x) on convex models,
  while only GA-SGD converges stably on the neural model.

The per-workload (algorithm x workers) grid is declarative
(:func:`workload_points`) and runs on the sweep orchestrator;
:func:`aggregate` rebuilds the comparisons — loss curves included —
from per-point JSON artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import DEFAULT_SEED
from repro.core.results import RunResult
from repro.experiments.report import format_series, format_table
from repro.sweep.artifacts import result_from_artifact
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, study

# The figure's three panels: (model, dataset, (small W, large W)).
# MobileNet runs at (10, 50): GA-SGD is the only stable algorithm there
# and its per-batch communication makes W=300 a wall-clock sink.
PANELS = [
    ("lr", "higgs", (10, 300)),
    ("svm", "higgs", (10, 300)),
    ("mobilenet", "cifar10", (10, 50)),
]
# Epoch cap for GA-SGD in the default study grid. At large scale GA-SGD
# is dominated by per-batch communication; a small cap keeps the sweep
# bounded without changing its (anti-scaling) story.
GA_SGD_STUDY_EPOCHS = 3.0


@dataclass
class AlgorithmComparison:
    """Results of one workload across algorithms and worker counts."""

    workload: str
    results: dict[tuple[str, int], RunResult]  # (algorithm, workers) -> result

    def speedup(self, algorithm: str, small: int, large: int) -> float | None:
        base = self.results.get((algorithm, small))
        scaled_run = self.results.get((algorithm, large))
        if base is None or scaled_run is None or scaled_run.duration_s == 0:
            return None
        return base.duration_s / scaled_run.duration_s

    def worker_counts(self) -> tuple[int, int]:
        counts = sorted({w for _, w in self.results})
        return (counts[0], counts[-1])


def _algorithms_for(model: str) -> list[str]:
    if model in ("mobilenet", "resnet50"):
        # ADMM cannot optimise non-convex objectives (paper §4.2).
        return ["ga_sgd", "ma_sgd"]
    return ["admm", "ma_sgd", "ga_sgd"]


def workload_points(
    model: str = "lr",
    dataset: str = "higgs",
    worker_counts: tuple[int, int] = (10, 300),
    max_epochs: float | None = None,
    ga_max_epochs: float | None = None,
    seed: int = DEFAULT_SEED,
) -> list[SweepPoint]:
    """One (algorithm, workers) grid cell per point, for one workload."""
    base = Scenario.workload(
        model, dataset, system="lambdaml", channel="memcached",
        # §4 protocol: Memcached is launched before the Lambdas.
        channel_prestarted=True,
        partition_mode="label-skew" if model in ("mobilenet", "resnet50") else "iid",
        seed=seed,
    )
    if max_epochs:
        base = base.vary(max_epochs=max_epochs)
    points = []
    for algorithm in _algorithms_for(model):
        cell = base.vary(algorithm=algorithm)
        if algorithm == "ga_sgd" and ga_max_epochs is not None:
            # GA-SGD at large scale is dominated by per-batch
            # communication; capping epochs keeps runs bounded
            # without changing the (non-)convergence story.
            cell = cell.vary(max_epochs=ga_max_epochs)
        points += [
            s.named(
                f"{model}/{dataset} {algorithm},W={s.kwargs['workers']}",
                workload=f"{model}/{dataset}",
            ).point("fig7")
            for s in cell.grid(workers=worker_counts)
        ]
    return points


def sweep_points(
    max_epochs: float | None = None, seed: int = DEFAULT_SEED
) -> list[SweepPoint]:
    """The full Figure-7 grid (all three panels)."""
    points = []
    for model, dataset, counts in PANELS:
        points += workload_points(
            model, dataset, worker_counts=counts,
            max_epochs=max_epochs,
            ga_max_epochs=max_epochs or GA_SGD_STUDY_EPOCHS,
            seed=seed,
        )
    return points


def aggregate(artifacts: list[dict]) -> list[AlgorithmComparison]:
    """Rebuild per-workload comparisons from sweep artifacts."""
    comparisons: dict[str, AlgorithmComparison] = {}
    for artifact in artifacts:
        workload = artifact["tags"]["workload"]
        comparison = comparisons.setdefault(
            workload, AlgorithmComparison(workload=workload, results={})
        )
        config = artifact["config"]
        key = (config["algorithm"], config["workers"])
        comparison.results[key] = result_from_artifact(artifact)
    return list(comparisons.values())


def format_report(comparison: AlgorithmComparison) -> str:
    small, large = comparison.worker_counts()
    rows = []
    for (algorithm, workers), result in sorted(comparison.results.items()):
        rows.append(
            [
                algorithm,
                workers,
                result.converged,
                result.final_loss,
                result.duration_s,
                result.comm_rounds,
                result.epochs,
            ]
        )
    table = format_table(
        f"Figure 7 — algorithms on {comparison.workload}",
        ["algorithm", "workers", "converged", "loss", "time(s)", "comms", "epochs"],
        rows,
    )
    speedups = []
    algorithms = sorted({a for a, _ in comparison.results})
    for algorithm in algorithms:
        s = comparison.speedup(algorithm, small, large)
        speedups.append([algorithm, s])
    table2 = format_table(
        f"Speed-up of {large} vs {small} workers",
        ["algorithm", "speedup"],
        speedups,
    )
    curves = {
        f"{a}@{w}": r.loss_curve() for (a, w), r in sorted(comparison.results.items())
    }
    return "\n\n".join([table, table2, format_series("Loss vs time", curves)])


def _scaling(comparisons, workload: str, holds) -> str | None:
    """``None`` when ``holds(admm_speedup, ga_sgd_speedup)`` from small to large W."""
    comparison = next(c for c in comparisons if c.workload == workload)
    small, large = comparison.worker_counts()
    admm, ga = (comparison.speedup(a, small, large) for a in ("admm", "ga_sgd"))
    if holds(admm, ga):
        return None
    return f"{workload} W={small}->{large}: ADMM {admm:.3g}x, GA-SGD {ga:.3g}x"


def _mobilenet_ga_beats_unstable_ma(comparisons) -> str | None:
    results = next(c for c in comparisons if c.workload == "mobilenet/cifar10").results
    ga, ma = (results[(a, 10)].final_loss for a in ("ga_sgd", "ma_sgd"))
    # A NaN loss is MA-SGD diverging: the instability the paper reports.
    if math.isfinite(ga) and (math.isnan(ma) or ga < ma):
        return None
    return f"W=10 final loss: GA-SGD {ga:.3g}, MA-SGD {ma:.3g}"


@study("fig7")
class Fig7Study:
    """algorithm comparison (GA-SGD / MA-SGD / ADMM) at small vs large worker counts"""

    @staticmethod
    def points(ctx):
        return sweep_points(max_epochs=ctx.max_epochs, seed=ctx.seed)

    aggregate = staticmethod(aggregate)

    @staticmethod
    def format_report(comparisons: list[AlgorithmComparison]) -> str:
        return "\n\n".join(format_report(c) for c in comparisons)

    claims = (
        Claim("fig7.lr_admm_scales_ga_anti_scales", "Fig. 7a",
              lambda r: _scaling(r, "lr/higgs", lambda admm, ga: admm > 1.0 > ga)),
        Claim("fig7.lr_admm_speedup_magnitude", "Fig. 7a",
              lambda r: _scaling(r, "lr/higgs", lambda admm, ga: admm > 1.5),
              deviation="the paper's ADMM speeds up ~16x from 10 to 300 "
              "workers; the simulated one ~1.4x (a bound of 1.5x held from "
              "10 to 96 workers only)"),
        Claim("fig7.svm_admm_outscales_ga", "Fig. 7b",
              lambda r: _scaling(r, "svm/higgs", lambda admm, ga: admm > ga)),
        Claim("fig7.mobilenet_ga_beats_unstable_ma", "Fig. 7c, §4.2",
              _mobilenet_ga_beats_unstable_ma),
    )
