"""The paper's analytical runtime/cost model (Section 5.3).

    FaaS(w) = t_F(w) + load + R_F f_F(w) [ (3w-2)(m/w / B_ch + L_ch) + C_F / w ]
    IaaS(w) = t_I(w) + load + R_I f_I(w) [ (2w-2)(m/w / B_n  + L_n ) + C_I / w ]

The (3w-2) vs (2w-2) asymmetry is structural: FaaS must bounce every
aggregate off a storage service with no compute capacity, costing one
extra leg per worker. Loading reads each worker's partition from S3 in
parallel (Figure 10 measures ~9 s for 8 GB across 10 workers, i.e. the
per-worker share at S3 bandwidth).

Cost is obtained by multiplying runtime by the per-second price of the
resources held: w Lambda functions (GB-seconds) for FaaS, w VMs for
IaaS, plus a parameter-server VM for the hybrid architecture
(Section 5.3.1's Q1 what-ifs plug a 10 Gbps FaaS-IaaS link into the
same expressions).

The model's inputs are the simulator's own Table-6 envelopes, read by
name: S3 from ``repro.storage.services.S3_PROFILE``, ElastiCache from
its cache.t3.medium node, the t2/c5 networks from the t2.medium and
c5.large instances, and t_F(w) / t_I(w) from the FaaS and IaaS start-up
functions. Figure 13 validates one view against the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.data.datasets import get_spec
from repro.faas.runtime import faas_startup_seconds
from repro.iaas.cluster import iaas_startup_seconds
from repro.iaas.vm import INSTANCES
from repro.models.zoo import get_model_info
from repro.pricing.catalog import DEFAULT_CATALOG
from repro.storage.services import ELASTICACHE_NODES, S3_PROFILE

# The IaaS side's network choices: the instance whose link each names.
_NETWORK_INSTANCES = {"t2": "t2.medium", "c5": "c5.large"}

ScalingFn = Callable[[int], float]


def _no_scaling(workers: int) -> float:
    return 1.0


@dataclass(frozen=True)
class WorkloadParams:
    """Inputs of the analytical model for one workload."""

    dataset_bytes: float  # s
    model_bytes: float  # m
    epochs_faas: float  # R_F (epochs to converge, 1 worker)
    epochs_iaas: float  # R_I
    compute_faas_s: float  # C_F: single-worker seconds per epoch
    compute_iaas_s: float  # C_I
    rounds_per_epoch: float = 1.0  # communication rounds per epoch
    scaling_faas: ScalingFn = _no_scaling  # f_F(w)
    scaling_iaas: ScalingFn = _no_scaling  # f_I(w)
    # Channel selection for the FaaS side: "s3" or "elasticache".
    channel: str = "s3"
    # Network selection for the IaaS side: "t2" or "c5".
    network: str = "t2"

    @classmethod
    def from_zoo(
        cls, model: str, dataset: str, epochs: float, rounds_per_epoch: float,
        **overrides,
    ) -> WorkloadParams:
        """Model inputs of a zoo workload, from its dataset and model profiles.

        Both platforms run ``epochs`` epochs at the reference worker's
        single-worker compute time C = instances x seconds-per-instance;
        ``overrides`` replace any field (channel, network, a GPU's C_I...).
        """
        spec = get_spec(dataset)
        info = get_model_info(model, dataset)
        compute = spec.n_instances * info.compute.per_instance_s
        fields = dict(
            dataset_bytes=spec.size_bytes,
            model_bytes=info.param_bytes,
            epochs_faas=epochs,
            epochs_iaas=epochs,
            compute_faas_s=compute,
            compute_iaas_s=compute,
            rounds_per_epoch=rounds_per_epoch,
        )
        return cls(**{**fields, **overrides})


@dataclass(frozen=True)
class AnalyticalModel:
    """Evaluate FaaS(w) / IaaS(w) and their dollar costs."""

    params: WorkloadParams

    # -- building blocks ----------------------------------------------------
    def load_seconds(self, workers: int) -> float:
        return self.params.dataset_bytes / (workers * S3_PROFILE.bandwidth_bps)

    def _channel(self) -> tuple[float, float]:
        if self.params.channel == "s3":
            return S3_PROFILE.bandwidth_bps, S3_PROFILE.latency_s
        if self.params.channel == "elasticache":
            node = ELASTICACHE_NODES["cache.t3.medium"]
            return node["bandwidth_bps"], node["latency_s"]
        raise ValueError(f"unknown channel {self.params.channel!r}")

    def _network(self) -> tuple[float, float]:
        if self.params.network not in _NETWORK_INSTANCES:
            raise ValueError(f"unknown network {self.params.network!r}")
        vm = INSTANCES[_NETWORK_INSTANCES[self.params.network]]
        return vm.network_bps, vm.network_latency_s

    def faas_comm_seconds(self, workers: int) -> float:
        bandwidth, latency = self._channel()
        m = self.params.model_bytes
        per_round = (3 * workers - 2) * ((m / workers) / bandwidth + latency)
        return self.params.rounds_per_epoch * per_round

    def iaas_comm_seconds(self, workers: int) -> float:
        bandwidth, latency = self._network()
        m = self.params.model_bytes
        per_round = (2 * workers - 2) * ((m / workers) / bandwidth + latency)
        return self.params.rounds_per_epoch * per_round

    # -- runtimes -----------------------------------------------------------
    def faas_seconds(self, workers: int) -> float:
        p = self.params
        epochs = p.epochs_faas * p.scaling_faas(workers)
        per_epoch = self.faas_comm_seconds(workers) + p.compute_faas_s / workers
        return faas_startup_seconds(workers) + self.load_seconds(workers) + epochs * per_epoch

    def iaas_seconds(self, workers: int) -> float:
        p = self.params
        epochs = p.epochs_iaas * p.scaling_iaas(workers)
        per_epoch = self.iaas_comm_seconds(workers) + p.compute_iaas_s / workers
        return iaas_startup_seconds(workers) + self.load_seconds(workers) + epochs * per_epoch

    # -- costs --------------------------------------------------------------
    @staticmethod
    def faas_price(workers: int, seconds: float, lambda_memory_gb: float = 3.0) -> float:
        """Dollars for ``workers`` Lambda functions held ``seconds``."""
        return workers * lambda_memory_gb * seconds * DEFAULT_CATALOG.lambda_per_gb_second

    @staticmethod
    def iaas_price(workers: int, seconds: float, instance: str = "t2.medium") -> float:
        """Dollars for ``workers`` VMs of type ``instance`` held ``seconds``."""
        return workers * DEFAULT_CATALOG.ec2_price(instance) * seconds / 3600.0

    def faas_cost(self, workers: int, lambda_memory_gb: float = 3.0) -> float:
        return self.faas_price(workers, self.faas_seconds(workers), lambda_memory_gb)

    def iaas_cost(self, workers: int, instance: str = "t2.medium") -> float:
        return self.iaas_price(workers, self.iaas_seconds(workers), instance)
