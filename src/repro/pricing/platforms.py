"""Serving-platform cost/throughput profiles (the FaaS vs GPU cost axis).

The serving tier prices three ways of hosting inference replicas:

* ``faas`` — Lambda-style functions. Billed per GB-second *of use*
  (idle warm containers are free), so the effective hourly rate below
  is the ceiling at 100 % utilization.
* ``iaas`` — always-on CPU VMs (c5.xlarge by default), billed per
  instance-hour whether or not requests arrive.
* ``gpu_iaas`` — always-on GPU VMs (g4dn.xlarge / NVIDIA T4 by
  default). The throughput multiplier comes from the published
  CPU-serverless-vs-GPU cost-performance ratios (Barrak et al.) and
  matches the training-side calibration in :mod:`repro.models.zoo`:
  T4 ≈ 27× and M60 ≈ 20× a Lambda-class reference worker for the CNN
  workloads, with no speed-up for models without GPU kernels.

The profiles are frozen and catalog-driven so every serving experiment
bills identically; :func:`inference_speedup` is the single place the
platform axis touches per-request service time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.models.zoo import ComputeProfile

# Single-request speed of one always-on CPU VM core relative to the
# Lambda reference worker (3 GB ≈ 1.8 shared vCPU): a dedicated c5
# core is modestly faster per request.
IAAS_CPU_MULTIPLIER = 1.2

# Cold provisioning latency for always-on platforms: EC2 launch +
# image boot. GPU instances take longer (driver + runtime init).
IAAS_BOOT_S = 40.0
GPU_IAAS_BOOT_S = 60.0


@dataclass(frozen=True)
class PlatformProfile:
    """One way of hosting inference replicas, priced."""

    name: str
    kind: str  # "faas" | "iaas"
    instance: str | None = None  # EC2 instance type (IaaS platforms)
    gpu: bool = False
    cpu_multiplier: float = 1.0  # per-request speed vs the Lambda ref worker
    boot_s: float = 0.0  # provisioning latency of one replica (VM boot)

    def __post_init__(self) -> None:
        if self.kind not in ("faas", "iaas"):
            raise ConfigurationError(
                f"platform kind must be 'faas' or 'iaas', got {self.kind!r}"
            )
        if self.kind == "iaas" and not self.instance:
            raise ConfigurationError(f"IaaS platform {self.name!r} needs an instance type")


def inference_speedup(profile: PlatformProfile, compute: ComputeProfile) -> float:
    """Per-request service-time divisor for a model on a platform.

    FaaS replicas are the reference worker (1.0). GPU platforms get the
    model's calibrated GPU ratio (T4 for g4 instances, M60 for g3);
    models without GPU kernels (``gpu_speedup_* == 1``) fall back to
    the platform's CPU multiplier — a GPU box still has CPU cores.
    """
    if profile.kind == "faas":
        return 1.0
    if profile.gpu:
        instance = profile.instance or ""
        gpu = (
            compute.gpu_speedup_t4
            if instance.startswith("g4")
            else compute.gpu_speedup_m60
        )
        return max(gpu, profile.cpu_multiplier)
    return profile.cpu_multiplier


SERVING_PLATFORMS: dict[str, PlatformProfile] = {
    "faas": PlatformProfile(name="faas", kind="faas"),
    "iaas": PlatformProfile(
        name="iaas",
        kind="iaas",
        instance="c5.xlarge",
        cpu_multiplier=IAAS_CPU_MULTIPLIER,
        boot_s=IAAS_BOOT_S,
    ),
    "gpu_iaas": PlatformProfile(
        name="gpu_iaas",
        kind="iaas",
        instance="g4dn.xlarge",
        gpu=True,
        cpu_multiplier=IAAS_CPU_MULTIPLIER,
        boot_s=GPU_IAAS_BOOT_S,
    ),
}


def get_platform(
    name: str,
    instance: str | None = None,
    gpu_instance: str | None = None,
) -> PlatformProfile:
    """Resolve a platform name, optionally overriding the instance type."""
    try:
        profile = SERVING_PLATFORMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown serving platform {name!r}; known: {sorted(SERVING_PLATFORMS)}"
        ) from None
    override = gpu_instance if profile.gpu else instance
    if profile.kind == "iaas" and override and override != profile.instance:
        profile = dataclasses.replace(profile, instance=override)
    return profile
