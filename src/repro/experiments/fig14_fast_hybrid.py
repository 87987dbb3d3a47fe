"""Figure 14 (Q1): what if FaaS-IaaS communication reached 10 Gbps?

Evaluated analytically, as in the paper: we plug the 10 Gbps link into
the hybrid model's communication term for LR/YFCC100M and
MobileNet/Cifar10 and compare runtime/cost against today's hybrid,
pure FaaS, IaaS, and IaaS-GPU.

Expected shape: for LR/YFCC, even the 10 Gbps hybrid loses to pure
FaaS (which skips the PS VM's start-up and runs ADMM); for MobileNet it
lands ~10% faster than CPU IaaS but still behind the GPU; with a
hypothetical GPU-FaaS at g3s.xlarge pricing it would become ~18%
cheaper than GPU IaaS.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analytics.casestudy import q1_fast_hybrid
from repro.analytics.model import AnalyticalModel, WorkloadParams
from repro.models.zoo import get_model_info
from repro.sweep.study import Claim, Table, study


def _workload_params(model: str, dataset: str, epochs: float, rounds_per_epoch: float,
                     gpu: bool = False) -> WorkloadParams:
    params = WorkloadParams.from_zoo(
        model, dataset, epochs, rounds_per_epoch,
        channel="elasticache" if model in ("mobilenet", "resnet50") else "s3",
        network="c5",
    )
    if gpu:
        speedup = get_model_info(model, dataset).compute.gpu_speedup_m60
        params = replace(params, compute_iaas_s=params.compute_iaas_s / speedup)
    return params


def _row(workload: str, system: str, runtime_s: float, cost: float) -> dict:
    return {"workload": workload, "system": system, "runtime_s": runtime_s, "cost": cost}


#: The what-if table's columns (Figure 15 prints the same).
COLUMNS = (
    ("workload", "workload"),
    ("system", "system"),
    ("runtime(s)", "runtime_s"),
    ("cost($)", "cost"),
)


# Workers for the LR/YFCC100M and the MobileNet/Cifar10 what-ifs.
WORKERS_LR = 100
WORKERS_MN = 10


def run() -> list[dict]:
    rows: list[dict] = []

    # LR on YFCC100M: ADMM on FaaS (one exchange per ten epochs).
    lr_params = _workload_params("lr", "yfcc100m", epochs=20.0, rounds_per_epoch=0.1)
    for system, (runtime, cost) in q1_fast_hybrid(lr_params, WORKERS_LR).items():
        rows.append(_row("lr/yfcc100m", system, runtime, cost))

    # MobileNet on Cifar10: GA-SGD syncs every batch (~47 rounds/epoch).
    mn_params = _workload_params("mobilenet", "cifar10", epochs=30.0, rounds_per_epoch=47.0)
    mn_points = q1_fast_hybrid(mn_params, WORKERS_MN)
    for system, (runtime, cost) in mn_points.items():
        rows.append(_row("mobilenet/cifar10", system, runtime, cost))

    # IaaS on GPU for MobileNet, and a hypothetical GPU-FaaS: the 10 Gbps
    # hybrid at the GPU's speed-up, priced like g3s.xlarge.
    mn_gpu = _workload_params("mobilenet", "cifar10", epochs=30.0, rounds_per_epoch=47.0, gpu=True)
    gpu_model = AnalyticalModel(mn_gpu)
    rows.append(_row("mobilenet/cifar10", "iaas-gpu", gpu_model.iaas_seconds(WORKERS_MN),
                     gpu_model.iaas_cost(WORKERS_MN, "g3s.xlarge")))
    speedup = get_model_info("mobilenet", "cifar10").compute.gpu_speedup_m60
    gpu_faas_runtime = mn_points["hybrid-10g"][0] / speedup
    rows.append(_row("mobilenet/cifar10", "gpu-faas (hypothetical)", gpu_faas_runtime,
                     AnalyticalModel.iaas_price(WORKERS_MN, gpu_faas_runtime, "g3s.xlarge")))
    return rows


def _ordered(rows, workload: str, *systems: str, key: str = "runtime_s") -> str | None:
    """``None`` when ``systems`` come in strictly increasing ``key``."""
    t = {r["system"]: r[key] for r in rows if r["workload"] == workload}
    if all(t[a] < t[b] for a, b in zip(systems, systems[1:])):
        return None
    return f"{workload} {key}: " + ", ".join(f"{s} {t[s]:.4g}" for s in systems)


@study("fig14")
class Fig14Study:
    """Q1 what-if: a 10 Gbps FaaS<->IaaS link, evaluated analytically"""

    aggregate = staticmethod(lambda artifacts: run())
    report = (
        Table("Figure 14 — Q1: 10 Gbps FaaS<->IaaS what-if (analytical)", COLUMNS),
    )
    claims = (
        Claim("fig14.fast_link_speeds_up_hybrid", "Fig. 14, §6",
              lambda rows: _ordered(rows, "lr/yfcc100m", "hybrid-10g", "hybrid")
              or _ordered(rows, "mobilenet/cifar10", "hybrid-10g", "hybrid")),
        Claim("fig14.lr_faas_beats_fast_hybrid", "Fig. 14, §6",
              lambda rows: _ordered(rows, "lr/yfcc100m", "faas", "hybrid-10g")),
        Claim("fig14.mobilenet_fast_hybrid_between_gpu_and_cpu", "Fig. 14, §6",
              lambda rows: _ordered(rows, "mobilenet/cifar10", "iaas-gpu", "hybrid-10g", "iaas")),
        Claim("fig14.gpu_faas_undercuts_gpu_iaas", "Fig. 14, §6", lambda rows: _ordered(
            rows, "mobilenet/cifar10", "gpu-faas (hypothetical)", "iaas-gpu", key="cost")),
    )
