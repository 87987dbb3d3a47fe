"""VM-based parameter server — the hybrid (Cirrus-style) architecture.

Lambda workers push gradients to, and pull models from, a parameter
server running on an EC2 VM over an RPC framework (gRPC or Thrift).
Section 4.3 finds this architecture bounded not by network line rate
but by (de)serialization on the Lambda side (CPU share ∝ memory), the
RPC server's effective ingress, and lock contention during model
updates. :class:`PSTimingModel` encodes those effects with constants
calibrated against Table 2 (75 MB transfers across λ-memory × instance
× worker-count combinations); :class:`ParameterServer` plugs them into
the discrete-event engine as a storage-like service whose `put` applies
a gradient update and whose `get` returns the current model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.faas.limits import REFERENCE_VCPUS, lambda_vcpus
from repro.iaas.cluster import iaas_startup_seconds
from repro.iaas.vm import InstanceSpec, get_instance
from repro.pricing.meter import CostMeter
from repro.simulation.resources import ServiceQueue
from repro.storage.base import ObjectStore, StorageProfile
from repro.utils.serialization import SizedPayload

MB = 1024 * 1024

# Lambda-side (de)serialization throughput at the 3 GB / 1.8 vCPU
# reference, per RPC framework. Scales with sqrt(vCPU share): Table 2
# shows 1 GB functions are ~1.3x slower, not 3x.
LAMBDA_SERDES_RATE = {"grpc": 100 * MB, "thrift": 4 * MB}

# Effective FaaS->VM bandwidth per function ("up to 70 MBps" [57, 95]).
FAAS_VM_BANDWIDTH = 70 * MB

# PS-side deserialization throughput by instance family and framework.
PS_DESER_RATE = {
    "grpc": {"t2": 100 * MB, "c5": 2500 * MB, "default": 400 * MB},
    "thrift": {"t2": 30 * MB, "c5": 700 * MB, "default": 100 * MB},
}

# How many concurrent pushes the RPC server sustains before queueing.
PS_INGRESS_SLOTS = {"grpc": {"t2": 3, "c5": 4, "default": 4}, "thrift": {"default": 1}}

# Model-update throughput under the parameter lock (Table 2 right
# columns: gRPC's reflection-heavy update path is slower than Thrift's).
PS_UPDATE_RATE = {
    "grpc": {"t2": 26 * MB, "c5": 33 * MB, "default": 30 * MB},
    "thrift": {"t2": 150 * MB, "c5": 190 * MB, "default": 170 * MB},
}


def _family(instance: InstanceSpec) -> str:
    return instance.name.split(".")[0]


def _rate(table: dict, rpc: str, instance: InstanceSpec) -> float:
    by_family = table[rpc]
    return by_family.get(_family(instance), by_family["default"])


@dataclass(frozen=True)
class PSTimingModel:
    """Closed-form timing of one hybrid-architecture round trip."""

    instance: InstanceSpec
    rpc: str = "grpc"
    lambda_memory_gb: float = 3.0

    def __post_init__(self) -> None:
        if self.rpc not in ("grpc", "thrift"):
            raise ConfigurationError(f"rpc must be grpc|thrift, got {self.rpc!r}")

    def lambda_serdes_s(self, nbytes: int) -> float:
        vcpu_scale = math.sqrt(lambda_vcpus(self.lambda_memory_gb) / REFERENCE_VCPUS)
        return nbytes / (LAMBDA_SERDES_RATE[self.rpc] * vcpu_scale)

    def transfer_s(self, nbytes: int) -> float:
        return nbytes / FAAS_VM_BANDWIDTH

    def ps_deser_s(self, nbytes: int) -> float:
        return nbytes / _rate(PS_DESER_RATE, self.rpc, self.instance)

    def update_s(self, nbytes: int) -> float:
        return nbytes / _rate(PS_UPDATE_RATE, self.rpc, self.instance)

    @property
    def ingress_slots(self) -> int:
        return _rate(PS_INGRESS_SLOTS, self.rpc, self.instance)

    # -- closed-form aggregates used by the Table 2 micro-benchmark ---------
    def data_transmission_s(self, nbytes: int, concurrent_workers: int) -> float:
        """Time until the last of k concurrent pushes has been received."""
        waves = math.ceil(concurrent_workers / self.ingress_slots)
        return (
            self.lambda_serdes_s(nbytes)
            + waves * self.transfer_s(nbytes)
            + self.ps_deser_s(nbytes)
        )

    def model_update_s(self, nbytes: int, concurrent_workers: int) -> float:
        """Time to apply k updates under the parameter lock."""
        return concurrent_workers * self.update_s(nbytes)


class ParameterServer(ObjectStore):
    """Engine-pluggable PS: put(grad) applies an update, get() pulls.

    Timing: a push pays Lambda-side serialization (uncontended), then
    transfer + PS deserialization on the ingress queue, then the update
    under a single-slot lock queue. A pull pays PS-side serialization +
    transfer on the egress queue, then Lambda-side deserialization.
    """

    MODEL_KEY = "model"

    def __init__(
        self,
        timing: PSTimingModel,
        init_params: np.ndarray,
        logical_param_bytes: int,
        lr: float = 0.0,
        meter: CostMeter | None = None,
    ) -> None:
        profile = StorageProfile(
            name=f"ps[{timing.instance.name}/{timing.rpc}]",
            latency_s=1e-3,
            bandwidth_bps=FAAS_VM_BANDWIDTH,
            concurrency=timing.ingress_slots,
            startup_s=iaas_startup_seconds(1),
        )
        super().__init__(profile, meter=meter)
        self.timing = timing
        self.lr = lr
        self.logical_param_bytes = logical_param_bytes
        self.params = np.asarray(init_params, dtype=np.float64).copy()
        self.push_count = 0
        self._ingress = ServiceQueue(timing.ingress_slots)
        self._egress = ServiceQueue(max(2, timing.ingress_slots))
        self._lock = ServiceQueue(1)

    # -- timing ----------------------------------------------------------------
    def _service_times(self, op: str, nbytes: int, arrival: float) -> tuple[float, float]:
        """(start, completion) of an op arriving once the PS is up.

        Replaces the base store's single queue in :meth:`ObjectStore.book`,
        which still checks, bills (nothing: a PS is billed as a VM) and
        charges the issuer.
        """
        if op == "put":
            ser_done = arrival + self.timing.lambda_serdes_s(nbytes)
            ingress_duration = self.timing.transfer_s(nbytes) + self.timing.ps_deser_s(nbytes)
            _, received = self._ingress.schedule(ser_done, ingress_duration)
            _, updated = self._lock.schedule(received, self.timing.update_s(nbytes))
            return arrival, updated
        if op == "get":
            egress_duration = self.timing.ps_deser_s(nbytes) + self.timing.transfer_s(nbytes)
            _, sent = self._egress.schedule(arrival, egress_duration)
            return arrival, sent + self.timing.lambda_serdes_s(nbytes)
        # A list is a cheap metadata RPC.
        return arrival, arrival + self.profile.latency_s

    # -- data ----------------------------------------------------------------
    def _do_put(self, key: str, value) -> list:
        if not key.startswith("grad/"):
            return super()._do_put(key, value)
        gradient = np.asarray(value.value, dtype=np.float64)
        if gradient.shape != self.params.shape:
            return super()._do_put(key, value)
        self.params -= self.lr * gradient
        self.push_count += 1
        return []  # a push stores no key, so it can satisfy no waiter

    def _do_get(self, key: str):
        if key == self.MODEL_KEY:
            return SizedPayload(self.params.copy(), self.logical_param_bytes)
        return super()._do_get(key)


def make_parameter_server(
    instance_name: str,
    init_params: np.ndarray,
    logical_param_bytes: int,
    lr: float,
    rpc: str = "grpc",
    lambda_memory_gb: float = 3.0,
    meter: CostMeter | None = None,
) -> ParameterServer:
    """Convenience constructor resolving the instance by name."""
    timing = PSTimingModel(
        instance=get_instance(instance_name),
        rpc=rpc,
        lambda_memory_gb=lambda_memory_gb,
    )
    return ParameterServer(
        timing,
        init_params=init_params,
        logical_param_bytes=logical_param_bytes,
        lr=lr,
        meter=meter,
    )
