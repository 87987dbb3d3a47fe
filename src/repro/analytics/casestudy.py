"""Section 5.3.1 case studies: future-infrastructure what-ifs.

Q1 — What if Lambda↔VM communication reached 10 Gbps (and FaaS offered
GPUs at IaaS-like prices)? We re-evaluate the hybrid architecture's
round trip with the bandwidth term replaced, as the paper does in its
analytical model, producing Figure 14's runtime/cost points.

Q2 — What if the data is already hot in a VM (m5a.12xlarge)? Loading
then happens over the VM's egress instead of S3. IaaS peers pull at
near line rate; Lambda functions are bottlenecked by the per-function
FaaS link and the RPC serving path, which is why the paper finds IaaS
"significantly outperforms" FaaS on hot data (Figure 15).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analytics.model import AnalyticalModel, WorkloadParams
from repro.iaas.cluster import iaas_startup_seconds
from repro.iaas.ps import FAAS_VM_BANDWIDTH, LAMBDA_SERDES_RATE, MB
from repro.iaas.vm import INSTANCES

# The Q1 what-if's FaaS<->VM link, for transfer and serdes alike.
FAAS_VM_BANDWIDTH_10G = 1250 * MB

# Q2: hot data served from an m5a.12xlarge. IaaS peers saturate its
# 10 Gbps egress; Lambda readers are bound by the VM's RPC serving
# path (serialization per request), well below line rate.
HOT_VM_EGRESS_IAAS = INSTANCES["m5a.12xlarge"].network_bps
HOT_VM_EGRESS_FAAS = 150 * MB


@dataclass(frozen=True)
class HybridModel:
    """Analytical runtime/cost of the hybrid (PS-on-VM) architecture."""

    params: WorkloadParams
    ps_instance: str = "c5.4xlarge"
    faas_vm_bandwidth: float = FAAS_VM_BANDWIDTH
    # Lambda-side serialization rate (gRPC at 1.8 vCPU); the hybrid's
    # bottleneck today (Section 4.3).
    serdes_bandwidth: float = LAMBDA_SERDES_RATE["grpc"]

    def comm_seconds(self, workers: int) -> float:
        """Per-epoch PS round trips: push m, update, pull m."""
        m = self.params.model_bytes
        per_transfer = m / self.faas_vm_bandwidth + m / self.serdes_bandwidth
        # 2 transfers (push + pull); PS-side update folded into serdes.
        return self.params.rounds_per_epoch * 2.0 * per_transfer

    def seconds(self, workers: int) -> float:
        p = self.params
        epochs = p.epochs_faas * p.scaling_faas(workers)
        per_epoch = self.comm_seconds(workers) + p.compute_faas_s / workers
        startup = iaas_startup_seconds(1)  # one PS VM gates the job
        load = AnalyticalModel(p).load_seconds(workers)
        return startup + load + epochs * per_epoch

    def price(self, workers: int, seconds: float, lambda_memory_gb: float = 3.0) -> float:
        """Dollars for ``workers`` functions plus the PS VM held ``seconds``."""
        lam = AnalyticalModel.faas_price(workers, seconds, lambda_memory_gb)
        ps = AnalyticalModel.iaas_price(1, seconds, self.ps_instance)
        return lam + ps

    def cost(self, workers: int, lambda_memory_gb: float = 3.0) -> float:
        return self.price(workers, self.seconds(workers), lambda_memory_gb)


def q1_fast_hybrid(params: WorkloadParams, workers: int) -> dict[str, tuple[float, float]]:
    """Figure 14 points: (runtime, cost) per system with 10 Gbps links."""
    base = AnalyticalModel(params)
    hybrid_now = HybridModel(params)
    hybrid_10g = HybridModel(
        params,
        faas_vm_bandwidth=FAAS_VM_BANDWIDTH_10G,
        serdes_bandwidth=FAAS_VM_BANDWIDTH_10G,
    )
    return {
        "faas": (base.faas_seconds(workers), base.faas_cost(workers)),
        "iaas": (base.iaas_seconds(workers), base.iaas_cost(workers)),
        "hybrid": (hybrid_now.seconds(workers), hybrid_now.cost(workers)),
        "hybrid-10g": (hybrid_10g.seconds(workers), hybrid_10g.cost(workers)),
    }


def q2_hot_data(
    params: WorkloadParams, workers: int
) -> dict[str, tuple[float, float]]:
    """Figure 15 points: loading comes from a hot VM instead of S3."""
    s = params.dataset_bytes
    # Replace the S3 load with VM-egress loads per platform.
    no_load = replace(params, dataset_bytes=0.0)
    base = AnalyticalModel(no_load)
    hybrid = HybridModel(no_load)

    # IaaS peers are the model's default t2.medium workers.
    iaas_load = s / min(workers * INSTANCES["t2.medium"].network_bps, HOT_VM_EGRESS_IAAS)
    faas_load = s / min(workers * FAAS_VM_BANDWIDTH, HOT_VM_EGRESS_FAAS)

    iaas_s = base.iaas_seconds(workers) + iaas_load
    faas_s = base.faas_seconds(workers) + faas_load
    hybrid_s = hybrid.seconds(workers) + faas_load
    return {
        "iaas": (iaas_s, base.iaas_price(workers, iaas_s)),
        "faas": (faas_s, base.faas_price(workers, faas_s)),
        "hybrid": (hybrid_s, hybrid.price(workers, hybrid_s)),
    }
