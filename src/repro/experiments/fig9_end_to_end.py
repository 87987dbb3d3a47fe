"""Figure 9: end-to-end comparison of systems on the Table-4 workloads.

Competitors per workload (§5.1): LambdaML (pure FaaS, best algorithm),
distributed PyTorch running both SGD and ADMM (IaaS), Angel (IaaS
parameter server on Hadoop), HybridPS (Cirrus-style), and PyTorch on
GPU instances for the deep models.

Expected shape (§5.2): on communication-efficient convex workloads
LambdaML converges first thanks to ~1 s start-up and ADMM; Angel is
slowest (start-up + HDFS + compute); HybridPS beats plain PyTorch for
small models; for MobileNet/ResNet the hybrid is serdes-bound, PyTorch
beats LambdaML, and PyTorch-GPU wins outright.

Every panel is a grid declaration (:func:`sweep_points`, one point per
system) executed by the sweep orchestrator; :func:`aggregate` rebuilds
the panels — loss curves included — from per-point JSON artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import DEFAULT_SEED
from repro.core.results import RunResult
from repro.experiments.report import format_series, format_table
from repro.sweep.artifacts import result_from_artifact
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, study


@dataclass
class EndToEndPanel:
    """One Figure-9 subplot: every system on one workload."""

    workload: str
    results: dict[str, RunResult] = field(default_factory=dict)


def _system_scenarios(base: Scenario):
    """Yield (label, scenario) pairs for one panel."""
    deep = base.kwargs["model"] in ("mobilenet", "resnet50")
    best_algo = base.kwargs["algorithm"]
    if best_algo == "em":
        sgd_algo = "em"  # k-means trains with EM on every platform
    else:
        sgd_algo = "ga_sgd" if deep else "ma_sgd"

    yield "lambdaml", base.vary(system="lambdaml", channel="s3")
    yield "pytorch-sgd", base.vary(
        system="pytorch", algorithm=sgd_algo, instance="t2.medium"
    )
    if not deep and best_algo == "admm":
        yield "pytorch-admm", base.vary(system="pytorch", instance="t2.medium")
    if best_algo != "em":
        yield "hybridps", base.vary(system="hybridps", algorithm="ga_sgd")
    yield "angel", base.vary(system="angel", algorithm=sgd_algo, instance="t2.medium")
    if deep:
        yield "pytorch-gpu", base.vary(system="pytorch", instance="g3s.xlarge")


# The paper's twelve panels (Figure 9 a-l).
ALL_PANELS = [
    ("lr", "higgs"),
    ("svm", "higgs"),
    ("kmeans", "higgs"),
    ("lr", "rcv1"),
    ("svm", "rcv1"),
    ("kmeans", "rcv1"),
    ("lr", "yfcc100m"),
    ("svm", "yfcc100m"),
    ("kmeans", "yfcc100m"),
    ("lr", "criteo"),
    ("mobilenet", "cifar10"),
    ("resnet50", "cifar10"),
]


def panel_points(
    model: str,
    dataset: str,
    workers: int,
    max_epochs: float | None = None,
    seed: int = DEFAULT_SEED,
) -> list[SweepPoint]:
    """One point per system for a single panel, at exactly ``workers``."""
    base = Scenario.workload(model, dataset, workers=workers, seed=seed)
    if max_epochs is not None:
        base = base.vary(max_epochs=max_epochs)
    panel_label = f"{model}/{dataset},W={workers}"
    return [
        s.named(f"{panel_label} {label}", panel=panel_label, system=label).point("fig9")
        for label, s in _system_scenarios(base)
    ]


def sweep_points(
    max_epochs: float | None = None, seed: int = DEFAULT_SEED
) -> list[SweepPoint]:
    """One point per (panel, system) cell of Figure 9."""
    points = []
    for model, dataset in ALL_PANELS:
        w = Scenario.workload(model, dataset).kwargs["workers"]
        points += panel_points(model, dataset, w, max_epochs=max_epochs, seed=seed)
    return points


def aggregate(artifacts: list[dict]) -> list[EndToEndPanel]:
    """Rebuild the per-workload panels from sweep artifacts."""
    panels: dict[str, EndToEndPanel] = {}
    for artifact in artifacts:
        tags = artifact["tags"]
        panel = panels.setdefault(tags["panel"], EndToEndPanel(workload=tags["panel"]))
        panel.results[tags["system"]] = result_from_artifact(artifact)
    return list(panels.values())


def format_report(panels: list[EndToEndPanel]) -> str:
    blocks = []
    for panel in panels:
        rows = [
            [name, r.converged, r.final_loss, r.duration_s, r.cost_total, r.epochs]
            for name, r in panel.results.items()
        ]
        blocks.append(
            format_table(
                f"Figure 9 — {panel.workload}",
                ["system", "converged", "loss", "time(s)", "cost($)", "epochs"],
                rows,
            )
        )
        blocks.append(
            format_series(
                f"Loss vs time — {panel.workload}",
                {name: r.loss_curve() for name, r in panel.results.items()},
            )
        )
    return "\n\n".join(blocks)


# The communication-efficient convex panels of §5.2's first finding.
CONVEX_PANELS = ("lr/higgs", "svm/higgs", "lr/rcv1", "kmeans/higgs")


def _faster(panels, workloads, fast: str, slow: str) -> str | None:
    """``None`` when system ``fast`` beats system ``slow`` on every named panel."""
    t = {p.workload.split(",")[0]: p.results for p in panels}
    return "; ".join(
        f"{w}: {fast} {t[w][fast].duration_s:.4g} s, {slow} {t[w][slow].duration_s:.4g} s"
        for w in workloads
        if not t[w][fast].duration_s < t[w][slow].duration_s
    ) or None


@study("fig9")
class Fig9Study:
    """end-to-end systems comparison on the Table-4 workloads"""

    @staticmethod
    def points(ctx):
        return sweep_points(max_epochs=ctx.max_epochs, seed=ctx.seed)

    aggregate = staticmethod(aggregate)
    format_report = staticmethod(format_report)
    claims = (
        Claim("fig9.lambdaml_beats_pytorch_on_convex", "Fig. 9, §5.2",
              lambda r: _faster(r, CONVEX_PANELS, "lambdaml", "pytorch-sgd")),
        Claim("fig9.angel_slower_than_pytorch_on_convex", "Fig. 9, §5.2",
              lambda r: _faster(r, CONVEX_PANELS, "pytorch-sgd", "angel")),
        Claim("fig9.gpu_beats_cpu_and_faas_on_mobilenet", "Fig. 9k, §5.2",
              lambda r: _faster(r, ["mobilenet/cifar10"], "pytorch-gpu", "pytorch-sgd")
              or _faster(r, ["mobilenet/cifar10"], "pytorch-gpu", "lambdaml")),
        Claim("fig9.hybrid_serdes_bound_on_mobilenet", "Fig. 9k, §5.2",
              lambda r: _faster(r, ["mobilenet/cifar10"], "pytorch-gpu", "hybridps")),
    )
