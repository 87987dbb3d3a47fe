"""Figure 12: runtime/cost scatter across configurations.

For LR/SVM/KMeans on YFCC100M and MobileNet on Cifar10, sweep instance
types (IaaS), GPU families (MobileNet) and learning rates, plotting
every configuration as a (cost, runtime) point.

Expected shape: for LR/SVM some FaaS configuration beats every IaaS
configuration on runtime but not decisively on cost; for KMeans the
cost-optimal point is IaaS while FaaS is runtime-optimal; for MobileNet
a T4 GPU configuration dominates FaaS on both axes (~8x faster, ~9.5x
cheaper than the best FaaS in the paper; the M60 is ~15% slower and
~30% costlier than the T4).

The per-workload configuration grid is declarative
(:func:`workload_points`) and runs on the sweep orchestrator;
:func:`aggregate` rebuilds the scatters from per-point JSON artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import DEFAULT_SEED
from repro.experiments.report import format_table
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, study


# Each YFCC workload's base worker count is capped here (FaaS then also
# runs 2x and 3x it). A cap of 20 leaves the W=20 FaaS points past
# Lambda's 3 GB memory limit (~5.5 GiB of data per function).
WORKERS_CAP = 50


@dataclass
class ConfigPoint:
    platform: str  # "faas" | "iaas"
    label: str
    runtime_s: float
    cost: float
    converged: bool


@dataclass
class Scatter:
    workload: str
    points: list[ConfigPoint] = field(default_factory=list)

    def best(self, platform: str, key: str = "runtime_s") -> ConfigPoint | None:
        candidates = [p for p in self.points if p.platform == platform and p.converged]
        if not candidates:
            candidates = [p for p in self.points if p.platform == platform]
        if not candidates:
            return None
        return min(candidates, key=lambda p: getattr(p, key))


def workload_points(
    model: str,
    dataset: str,
    workers: int,
    iaas_instances: tuple[str, ...] = ("t2.medium", "c5.xlarge"),
    gpu_instances: tuple[str, ...] = (),
    max_epochs: float | None = None,
    seed: int = DEFAULT_SEED,
) -> list[SweepPoint]:
    """The configuration grid of one Figure-12 scatter."""
    base = Scenario.workload(model, dataset, workers=workers, seed=seed)
    if max_epochs:
        base = base.vary(max_epochs=max_epochs)
    tuned_lr = base.kwargs["lr"]
    series = f"{model}/{dataset}"
    # The paper tunes the worker count per configuration ("there are
    # more red points than orange points because we need to tune
    # different instance types for IaaS" — and worker counts for both):
    # FaaS's elasticity is exactly that it can deploy more workers.
    deep = model in ("mobilenet", "resnet50")
    faas_worker_grid = [workers] if deep else [workers, 2 * workers, 3 * workers]
    points = []
    for lr in (tuned_lr / 2, tuned_lr, tuned_lr * 2):
        tuned = base.vary(lr=lr)
        for s in tuned.vary(system="lambdaml", channel="s3").grid(workers=faas_worker_grid):
            label = f"faas,W={s.kwargs['workers']},lr={lr:g}"
            points.append(
                s.named(
                    f"{series} {label}", workload=series, platform="faas", config=label
                ).point("fig12")
            )
        for s in tuned.vary(system="pytorch").grid(instance=iaas_instances + gpu_instances):
            label = f"{s.kwargs['instance']},lr={lr:g}"
            points.append(
                s.named(
                    f"{series} {label}", workload=series, platform="iaas", config=label
                ).point("fig12")
            )
    return points


def sweep_points(
    max_epochs: float | None = None, seed: int = DEFAULT_SEED
) -> list[SweepPoint]:
    """The full Figure-12 grid: three YFCC workloads plus MobileNet."""
    points = []
    for model in ("lr", "svm", "kmeans"):
        workers = Scenario.workload(model, "yfcc100m").kwargs["workers"]
        points += workload_points(
            model, "yfcc100m", workers=min(workers, WORKERS_CAP),
            max_epochs=max_epochs, seed=seed,
        )
    points += workload_points(
        "mobilenet", "cifar10", workers=10,
        gpu_instances=("g3s.xlarge", "g4dn.xlarge"),
        max_epochs=max_epochs, seed=seed,
    )
    return points


def aggregate(artifacts: list[dict]) -> list[Scatter]:
    """Rebuild the per-workload scatters from sweep artifacts."""
    scatters: dict[str, Scatter] = {}
    for artifact in artifacts:
        tags = artifact["tags"]
        scatter = scatters.setdefault(tags["workload"], Scatter(workload=tags["workload"]))
        res = artifact["result"]
        scatter.points.append(
            ConfigPoint(
                platform=tags["platform"],
                label=tags["config"],
                runtime_s=res["duration_s"],
                cost=res["cost_total"],
                converged=res["converged"],
            )
        )
    return list(scatters.values())


def format_report(scatters: list[Scatter]) -> str:
    blocks = []
    for scatter in scatters:
        rows = [
            [p.platform, p.label, p.runtime_s, p.cost, p.converged]
            for p in scatter.points
        ]
        blocks.append(
            format_table(
                f"Figure 12 — configurations, {scatter.workload}",
                ["platform", "config", "runtime(s)", "cost($)", "converged"],
                rows,
            )
        )
    return "\n\n".join(blocks)


def _lr_yfcc(scatters, key: str, holds) -> str | None:
    """``None`` when ``holds(best_faas, best_iaas)`` on LR/YFCC100M, both by ``key``."""
    lr = next(s for s in scatters if s.workload == "lr/yfcc100m")
    faas, iaas = lr.best("faas", key), lr.best("iaas", key)
    if holds(getattr(faas, key), getattr(iaas, key)):
        return None
    return (f"best {key}: FaaS {getattr(faas, key):.4g} ({faas.label}), "
            f"IaaS {getattr(iaas, key):.4g} ({iaas.label})")


def _mobilenet_gpu_dominates_faas(scatters) -> str | None:
    mn = next(s for s in scatters if s.workload == "mobilenet/cifar10")
    gpus = [p for p in mn.points if "g4dn" in p.label or "g3s" in p.label]
    best = min(gpus, key=lambda p: p.runtime_s)
    return "; ".join(
        f"{best.label} ({best.runtime_s:.4g} s, ${best.cost:.3g}) does not dominate "
        f"{f.label} ({f.runtime_s:.4g} s, ${f.cost:.3g})"
        for f in mn.points
        if f.platform == "faas" and not (best.runtime_s < f.runtime_s and best.cost < f.cost)
    ) or None


@study("fig12")
class Fig12Study:
    """runtime/cost scatter across instances and learning rates"""

    @staticmethod
    def points(ctx):
        return sweep_points(max_epochs=ctx.max_epochs, seed=ctx.seed)

    aggregate = staticmethod(aggregate)
    format_report = staticmethod(format_report)
    claims = (
        Claim("fig12.lr_faas_fastest", "Fig. 12, §5.3",
              lambda r: _lr_yfcc(r, "runtime_s", lambda faas, iaas: faas < iaas)),
        # ...but not significantly cheaper.
        Claim("fig12.lr_faas_not_much_cheaper", "Fig. 12, §5.3",
              lambda r: _lr_yfcc(r, "cost", lambda faas, iaas: faas > 0.5 * iaas)),
        Claim("fig12.mobilenet_gpu_dominates_faas", "Fig. 12, §5.3",
              _mobilenet_gpu_dominates_faas),
    )
