"""ServingConfig: the declarative surface of the inference tier.

Exactly like ``TrainingConfig`` and ``ServiceConfig``, every init field
carries ``_cli`` metadata so ``repro.cli infer`` derives its flags
mechanically — config and CLI cannot drift, and the parity test in
tests/test_cli.py pins the bijection.

A serving config describes the whole train-then-serve pipeline for one
model: the (scaled-down) training run that produces the model, the
seeded request traffic that hits it (shape, rate, length), the hosting
platform (FaaS functions vs always-on CPU/GPU VMs), and the autoscaling
policy that grows and shrinks the replica pool. It is content-addressed
(:func:`serving_fingerprint`), which is what makes serving reports
resumable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.config import DEFAULT_SEED
from repro.core.config import _cli, check_choices
from repro.errors import ConfigurationError
from repro.faas.limits import MAX_MEMORY_GB
from repro.iaas.vm import INSTANCES
from repro.pricing.platforms import SERVING_PLATFORMS
from repro.serving.workload import TRAFFIC_SHAPES, check_traffic
from repro.utils.hashing import fingerprint_hash, init_fingerprint

PLATFORM_NAMES = tuple(sorted(SERVING_PLATFORMS))  # faas | gpu_iaas | iaas
AUTOSCALER_NAMES = ("fixed", "concurrency", "queue_depth")


@dataclass(frozen=True)
class ServingConfig:
    """One train-then-serve pipeline run (model x traffic x platform)."""

    # -- the served model (and the training run that produces it) ------
    model: str = field(
        default="mobilenet", metadata=_cli("model to train and serve")
    )
    dataset: str = field(
        default="cifar10", metadata=_cli("dataset the model is trained on")
    )
    train_workers: int = field(
        default=4, metadata=_cli("workers for the training run")
    )
    train_epochs: float = field(
        default=1.0, metadata=_cli("epoch budget for the training run")
    )
    data_scale: int = field(
        default=200,
        metadata=_cli("training dataset scale-down divisor"),
    )

    # -- request traffic ----------------------------------------------
    traffic: str = field(
        default="poisson",
        metadata=_cli("request arrival shape", TRAFFIC_SHAPES),
    )
    rate_rps: float = field(
        default=20.0, metadata=_cli("mean request arrival rate (requests/s)")
    )
    requests: int = field(
        default=600, metadata=_cli("number of requests to serve")
    )
    diurnal_period_s: float = field(
        default=30.0,
        metadata=_cli("sinusoid period of the diurnal shape (s)"),
    )
    diurnal_amplitude: float = field(
        default=0.8,
        metadata=_cli("relative amplitude of the diurnal sinusoid, in [0, 1)"),
    )
    burst_every_s: float = field(
        default=10.0, metadata=_cli("spike spacing of the bursty shape (s)")
    )
    burst_len_s: float = field(
        default=1.0, metadata=_cli("spike duration of the bursty shape (s)")
    )
    burst_factor: float = field(
        default=6.0,
        metadata=_cli("rate multiplier inside a bursty spike"),
    )

    # -- replica pool + platform --------------------------------------
    platform: str = field(
        default="faas",
        metadata=_cli("hosting platform for replicas", PLATFORM_NAMES),
    )
    autoscaler: str = field(
        default="concurrency",
        metadata=_cli("replica autoscaling policy", AUTOSCALER_NAMES),
    )
    min_replicas: int = field(
        default=1, metadata=_cli("replicas the pool never drops below")
    )
    max_replicas: int = field(
        default=16, metadata=_cli("replicas the pool never grows beyond")
    )
    target_concurrency: float = field(
        default=2.0,
        metadata=_cli("in-flight requests per replica the concurrency "
                      "policy aims for"),
    )
    queue_threshold: int = field(
        default=4,
        metadata=_cli("queued requests that trigger a queue-depth scale-up"),
    )
    scale_up_cooldown_s: float = field(
        default=2.0,
        metadata=_cli("hysteresis: minimum gap between queue-depth scale-ups"),
    )
    scale_down_cooldown_s: float = field(
        default=30.0,
        metadata=_cli("hysteresis: minimum gap between queue-depth scale-downs"),
    )
    idle_expiry_s: float = field(
        default=120.0,
        metadata=_cli("idle time after which a warm FaaS replica is reclaimed"),
    )
    memory_gb: float = field(
        default=3.0, metadata=_cli("memory of each FaaS replica (GB)")
    )
    cold_jitter: float = field(
        default=0.3,
        metadata=_cli("relative seeded jitter on FaaS cold-start latency"),
    )
    instance: str = field(
        default="c5.xlarge",
        metadata=_cli("EC2 instance type for --platform iaas", tuple(INSTANCES)),
    )
    gpu_instance: str = field(
        default="g4dn.xlarge",
        metadata=_cli("EC2 instance type for --platform gpu_iaas", tuple(INSTANCES)),
    )
    request_overhead_s: float = field(
        default=0.002,
        metadata=_cli("per-request routing/network overhead (s), "
                      "platform-independent"),
    )
    seed: int = field(
        default=DEFAULT_SEED,
        metadata=_cli("seed for traffic, cold-start jitter and training"),
    )

    def __post_init__(self) -> None:
        # The traffic knobs are checked where traces are generated, so a
        # config and a direct `request_arrivals` call refuse the same values.
        check_traffic(
            self.traffic, self.rate_rps, self.requests,
            self.diurnal_period_s, self.diurnal_amplitude,
            self.burst_every_s, self.burst_len_s, self.burst_factor,
        )
        check_choices(self)
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ConfigurationError(
                "need 1 <= --min-replicas <= --max-replicas"
            )
        if not 0 < self.target_concurrency < math.inf:
            raise ConfigurationError("--target-concurrency must be > 0 and finite")
        if self.queue_threshold < 1:
            raise ConfigurationError("--queue-threshold must be >= 1")
        if not (0 <= self.scale_up_cooldown_s < math.inf
                and 0 <= self.scale_down_cooldown_s < math.inf):
            raise ConfigurationError("scale cooldowns must be >= 0 and finite")
        if not 0 < self.idle_expiry_s < math.inf:
            raise ConfigurationError("--idle-expiry-s must be > 0 and finite")
        if not 0 < self.memory_gb <= MAX_MEMORY_GB:
            raise ConfigurationError(
                f"--memory-gb must be in (0, {MAX_MEMORY_GB}]"
            )
        if not 0 <= self.cold_jitter < math.inf:
            raise ConfigurationError("--cold-jitter must be >= 0 and finite")
        if not 0 <= self.request_overhead_s < math.inf:
            raise ConfigurationError("--request-overhead-s must be >= 0 and finite")

    def train_kwargs(self) -> dict:
        """The ``TrainingConfig`` kwargs of the pipeline's training leg.

        NN surrogates get the minibatch recipe: a full-batch gradient at
        serving data scales both exceeds the Lambda memory wall and
        diverges, so they train ga_sgd with small per-worker batches.
        """
        kwargs = dict(
            model=self.model,
            dataset=self.dataset,
            workers=self.train_workers,
            max_epochs=self.train_epochs,
            data_scale=self.data_scale,
            seed=self.seed,
        )
        if self.model in ("mobilenet", "resnet50"):
            kwargs.update(
                algorithm="ga_sgd", system="lambdaml", channel="memcached",
                batch_size=32, batch_scope="per_worker", lr=0.01,
            )
        return kwargs


serving_fingerprint = init_fingerprint


def serving_hash(config: ServingConfig) -> str:
    return fingerprint_hash(serving_fingerprint(config))
