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
(:func:`workload_points`) and runs on the sweep orchestrator; the report
and the claims read the artifacts' rows, loss curves included.
"""

from __future__ import annotations

import math

from repro.config import DEFAULT_SEED
from repro.experiments.report import ratio
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, Series, StudyContext, Table, pivot, study

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


def sweep_points(ctx: StudyContext = StudyContext()) -> list[SweepPoint]:
    """The full Figure-7 grid (all three panels)."""
    points = []
    for model, dataset, counts in PANELS:
        points += workload_points(
            model, dataset, worker_counts=counts,
            max_epochs=ctx.max_epochs,
            ga_max_epochs=ctx.max_epochs or GA_SGD_STUDY_EPOCHS,
            seed=ctx.seed,
        )
    return points


def _speedup(runs: dict) -> float | None:
    """One algorithm's small-W over large-W runtime (``runs``: workers -> row).

    ``None`` when one of the two worker counts has no run.
    """
    if len(runs) < 2:
        return None
    return ratio(runs[min(runs)]["duration_s"], runs[max(runs)]["duration_s"])


def _speedup_title(rows: list[dict]) -> str:
    workers = [r["workers"] for r in rows]
    return f"Speed-up of {max(workers)} vs {min(workers)} workers"


def _diverged(row) -> bool:
    """Did the run end worse than it started: a non-finite final loss, or
    one above every rank's baseline? Each rank records its baseline before
    any rank can finish a round, so those are the loss curve's first
    ``workers`` points."""
    baseline = max(loss for _, loss in row["loss_curve"][: row["workers"]])
    return not math.isfinite(row["final_loss"]) or row["final_loss"] > baseline


def _scaling(rows, workload: str, holds) -> str | None:
    """``None`` when ``holds(admm_speedup, ga_sgd_speedup)`` from small to large W
    and no run of the two diverged: a diverged run has not scaled, however
    soon it stopped."""
    cells = [r for r in rows if r["workload"] == workload]
    runs = pivot(cells, "algorithm", "workers")
    admm, ga = (_speedup(runs[a]) for a in ("admm", "ga_sgd"))
    diverged = [f"{a}@{w} (final loss {row['final_loss']:.3g})"
                for a in ("admm", "ga_sgd") for w, row in runs[a].items() if _diverged(row)]
    if holds(admm, ga) and not diverged:
        return None
    workers = [r["workers"] for r in cells]
    complaint = (f"{workload} W={min(workers)}->{max(workers)}: "
                 f"ADMM {admm:.3g}x, GA-SGD {ga:.3g}x")
    if diverged:
        complaint += f"; diverged: {', '.join(diverged)}"
    return complaint


def _mobilenet_ga_beats_unstable_ma(rows) -> str | None:
    mobilenet = [r for r in rows if r["workload"] == "mobilenet/cifar10"]
    runs = pivot(mobilenet, "algorithm", "workers")
    ga, ma = (runs[a][10]["final_loss"] for a in ("ga_sgd", "ma_sgd"))
    # A NaN loss is MA-SGD diverging: the instability the paper reports.
    if math.isfinite(ga) and (math.isnan(ma) or ga < ma):
        return None
    return f"W=10 final loss: GA-SGD {ga:.3g}, MA-SGD {ma:.3g}"


@study("fig7")
class Fig7Study:
    """algorithm comparison (GA-SGD / MA-SGD / ADMM) at small vs large worker counts"""

    points = staticmethod(sweep_points)
    group = "workload"
    sort = staticmethod(lambda r: (r["algorithm"], r["workers"]))
    report = (
        Table("Figure 7 — algorithms on {}", (
            ("algorithm", "algorithm"), ("workers", "workers"), ("converged", "converged"),
            ("loss", "final_loss"), ("time(s)", "duration_s"), ("comms", "comm_rounds"),
            ("epochs", "epochs"),
        )),
        Table(_speedup_title, (
            ("algorithm", lambda runs: runs[min(runs)]["algorithm"]), ("speedup", _speedup),
        ), pivot=("algorithm", "workers")),
        Series("Loss vs time", lambda r: f"{r['algorithm']}@{r['workers']}"),
    )
    claims = (
        Claim("fig7.lr_admm_scales_ga_anti_scales", "Fig. 7a",
              lambda r: _scaling(r, "lr/higgs", lambda admm, ga: admm > 1.0 > ga)),
        Claim("fig7.lr_admm_speedup_magnitude", "Fig. 7a",
              lambda r: _scaling(r, "lr/higgs", lambda admm, ga: admm > 1.5),
              deviation="the paper's ADMM speeds up ~16x from 10 to 300 "
              "workers; the simulated one ~1.4x (a bound of 1.5x held from "
              "10 to 96 workers only)"),
        Claim("fig7.svm_admm_outscales_ga", "Fig. 7b",
              lambda r: _scaling(r, "svm/higgs", lambda admm, ga: admm > ga),
              deviation="the simulated SVM/Higgs ADMM diverges at W=300, while "
              "Fig. 7b's scales"),
        Claim("fig7.mobilenet_ga_beats_unstable_ma", "Fig. 7c, §4.2",
              _mobilenet_ga_beats_unstable_ma),
    )
