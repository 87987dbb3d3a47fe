"""Figure 11: runtime vs cost as the worker count varies.

Two representative profiles:

* LR on Higgs — a communication-efficient workload. Adding workers
  speeds both FaaS and IaaS up to a plateau (FaaS flattens around 100
  workers); FaaS reaches lower runtimes but at comparable dollar cost.
* MobileNet on Cifar10 — communication-heavy. The FaaS curve flattens
  early; an IaaS GPU configuration dominates in both time and cost.

The grids are declarative (:func:`lr_higgs_points`,
:func:`mobilenet_points`) and run through the sweep orchestrator; the
default FaaS grid extends to 200/300/512 workers — past the paper's
~300-worker ceiling — to chart where the runtime plateau turns into a
cost cliff (the regime the SMLT / MLLess follow-ups target). The
report and the claims read the artifacts' rows, so a sweep directory
renders without re-running anything.
"""

from __future__ import annotations

from repro.config import DEFAULT_SEED
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, StudyContext, Table, study

# Default grids. FaaS deliberately crosses the paper's ceiling: Fig. 11
# stops near 300 workers, our engine sweeps to 512 and beyond.
FAAS_WORKERS = (10, 30, 50, 100, 200, 300, 512)
# The mega-scale tail (sweep --mega / StudyContext.mega): past the
# cost cliff into the regime SMLT/MLLess study, where per-round
# simulation cost dominates exploration. Opt-in, not default: the
# tail costs minutes of host wall; CI runs one W=1024 point of it
# (tests/test_mega_smoke.py).
MEGA_FAAS_WORKERS = (1024, 2048, 4096)
IAAS_WORKERS = (1, 2, 5, 10, 20, 30)
IAAS_INSTANCES = ("t2.medium", "c5.4xlarge")
MOBILENET_FAAS_WORKERS = (5, 10, 20)
MOBILENET_GPU_WORKERS = (1, 2, 5, 10)


def lr_higgs_points(
    faas_workers=FAAS_WORKERS,
    iaas_workers=IAAS_WORKERS,
    iaas_instances=IAAS_INSTANCES,
    max_epochs: float | None = None,
    seed: int = DEFAULT_SEED,
    mega: bool = False,
) -> list[SweepPoint]:
    """Declarative grid for the LR/Higgs profile.

    ``mega=True`` extends the FaaS series with the
    :data:`MEGA_FAAS_WORKERS` tail (W=1024/2048/4096) — same workload,
    same tags, just more of the curve.
    """
    if mega:
        faas_workers = tuple(faas_workers) + tuple(
            w for w in MEGA_FAAS_WORKERS if w not in faas_workers
        )
    base = Scenario.workload("lr", "higgs", seed=seed)
    if max_epochs:
        base = base.vary(max_epochs=max_epochs)
    faas = base.vary(system="lambdaml", channel="s3").grid(workers=faas_workers)
    iaas = base.vary(system="pytorch").grid(
        instance=iaas_instances, workers=iaas_workers
    )
    return [
        s.named(
            f"lr/higgs faas,W={s.kwargs['workers']}", series="lr/higgs", system="faas"
        ).point("fig11")
        for s in faas
    ] + [
        s.named(
            f"lr/higgs iaas,{s.kwargs['instance']},W={s.kwargs['workers']}",
            series="lr/higgs", system="iaas", instance=s.kwargs["instance"],
        ).point("fig11")
        for s in iaas
    ]


def mobilenet_points(
    max_epochs: float | None = None, seed: int = DEFAULT_SEED
) -> list[SweepPoint]:
    """Declarative grid for the MobileNet/Cifar10 profile."""
    base = Scenario.workload("mobilenet", "cifar10", seed=seed)
    if max_epochs:
        base = base.vary(max_epochs=max_epochs)
    faas = base.vary(system="lambdaml", channel="memcached").grid(workers=MOBILENET_FAAS_WORKERS)
    gpu = base.vary(system="pytorch", instance="g3s.xlarge").grid(workers=MOBILENET_GPU_WORKERS)
    return [
        s.named(
            f"mobilenet faas,W={s.kwargs['workers']}",
            series="mobilenet/cifar10", system="faas",
        ).point("fig11")
        for s in faas
    ] + [
        s.named(
            f"mobilenet iaas-gpu,W={s.kwargs['workers']}",
            series="mobilenet/cifar10", system="iaas-gpu", instance="g3s.xlarge",
        ).point("fig11")
        for s in gpu
    ]


def sweep_points(ctx: StudyContext = StudyContext()) -> list[SweepPoint]:
    """The full Figure-11 sweep grid (what ``repro.cli sweep`` runs).

    LR/Higgs uses the workload's 40-epoch benchmark cap; MobileNet runs
    the 6-epoch benchmark scale (its plateau shows within 6 epochs and
    the full 60 would dominate the sweep's wall-clock). ``mega`` adds
    the W=1024/2048/4096 FaaS tail (``sweep --mega``).
    """
    return lr_higgs_points(
        max_epochs=ctx.max_epochs or 40, seed=ctx.seed, mega=ctx.mega
    ) + mobilenet_points(max_epochs=ctx.max_epochs or 6, seed=ctx.seed)


def _series(rows, workload: str, system: str) -> list[dict]:
    return sorted(
        (r for r in rows if r["series"] == workload and r["system"] == system),
        key=lambda r: r["workers"],
    )


def _lr_higgs(rows, holds) -> str | None:
    """``None`` when ``holds(faas_rows, iaas_rows)``, each sorted by workers."""
    faas, iaas = (_series(rows, "lr/higgs", s) for s in ("faas", "iaas"))
    if holds(faas, iaas):
        return None
    return "; ".join(
        f"{name} W={p['workers']}: {p['duration_s']:.4g} s ${p['cost_total']:.3g}"
        for name, pts in (("faas", faas), ("iaas", iaas)) for p in pts
    )


def _mobilenet_gpu_dominates_faas(rows) -> str | None:
    gpus = _series(rows, "mobilenet/cifar10", "iaas-gpu")
    best = min(gpus, key=lambda r: r["duration_s"])
    return "; ".join(
        f"GPU W={best['workers']} ({best['duration_s']:.4g} s, ${best['cost_total']:.3g}) "
        f"does not dominate FaaS W={f['workers']} ({f['duration_s']:.4g} s, "
        f"${f['cost_total']:.3g})"
        for f in _series(rows, "mobilenet/cifar10", "faas")
        if not (best["duration_s"] < f["duration_s"] and best["cost_total"] < f["cost_total"])
    ) or None


@study("fig11")
class Fig11Study:
    """runtime/cost vs worker count; FaaS grid crosses the paper's ~300-worker ceiling up to 512 (4096 with --mega)"""

    points = staticmethod(sweep_points)
    group = "series"
    report = (
        Table("Figure 11 — runtime vs cost, {}", (
            # A FaaS point carries no instance tag: it runs on none.
            ("system", "system"), ("instance", "instance"),
            ("workers", "workers"), ("runtime(s)", "duration_s"), ("cost($)", "cost_total"),
            ("converged", "converged"),
        )),
    )
    claims = (
        Claim("fig11.lr_faas_fastest", "Fig. 11, §5.3", lambda r: _lr_higgs(
            r, lambda faas, iaas: min(p["duration_s"] for p in faas)
            < min(p["duration_s"] for p in iaas))),
        # ...but never significantly cheaper than the cheapest IaaS.
        Claim("fig11.lr_faas_not_much_cheaper", "Fig. 11, §5.3", lambda r: _lr_higgs(
            r, lambda faas, iaas: min(p["cost_total"] for p in faas)
            > 0.5 * min(p["cost_total"] for p in iaas))),
        Claim("fig11.lr_faas_cost_grows_with_workers", "Fig. 11", lambda r: _lr_higgs(
            r, lambda faas, _: faas[-1]["cost_total"] > faas[0]["cost_total"])),
        Claim("fig11.mobilenet_gpu_dominates_faas", "Fig. 11, §5.3",
              _mobilenet_gpu_dominates_faas),
    )
