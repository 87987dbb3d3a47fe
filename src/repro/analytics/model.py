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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analytics.constants import TABLE6, AnalyticalConstants
from repro.data.datasets import get_spec
from repro.models.zoo import get_model_info
from repro.pricing.catalog import DEFAULT_CATALOG, PriceCatalog

MB = 1024 * 1024

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
    constants: AnalyticalConstants = TABLE6
    catalog: PriceCatalog = field(default_factory=lambda: DEFAULT_CATALOG)

    # -- building blocks ----------------------------------------------------
    def load_seconds(self, workers: int) -> float:
        return self.params.dataset_bytes / (workers * self.constants.bandwidth_s3)

    def _channel(self) -> tuple[float, float]:
        if self.params.channel == "s3":
            return self.constants.bandwidth_s3, self.constants.latency_s3
        if self.params.channel == "elasticache":
            return self.constants.bandwidth_ec_t3, self.constants.latency_ec_t3
        raise ValueError(f"unknown channel {self.params.channel!r}")

    def _network(self) -> tuple[float, float]:
        if self.params.network == "t2":
            return self.constants.bandwidth_net_t2, self.constants.latency_net_t2
        if self.params.network == "c5":
            return self.constants.bandwidth_net_c5, self.constants.latency_net_c5
        raise ValueError(f"unknown network {self.params.network!r}")

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
        return self.constants.startup_faas(workers) + self.load_seconds(workers) + epochs * per_epoch

    def iaas_seconds(self, workers: int) -> float:
        p = self.params
        epochs = p.epochs_iaas * p.scaling_iaas(workers)
        per_epoch = self.iaas_comm_seconds(workers) + p.compute_iaas_s / workers
        return self.constants.startup_iaas(workers) + self.load_seconds(workers) + epochs * per_epoch

    # -- costs --------------------------------------------------------------
    def faas_cost(self, workers: int, lambda_memory_gb: float = 3.0) -> float:
        seconds = self.faas_seconds(workers)
        return workers * lambda_memory_gb * seconds * self.catalog.lambda_per_gb_second

    def iaas_cost(self, workers: int, instance: str = "t2.medium") -> float:
        seconds = self.iaas_seconds(workers)
        return workers * self.catalog.ec2_price(instance) * seconds / 3600.0
