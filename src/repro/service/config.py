"""ServiceConfig: the declarative surface of the multi-tenant service.

Exactly like ``TrainingConfig``, every init field carries ``_cli``
metadata so ``repro.cli serve`` derives its flags mechanically — the
service config and the CLI cannot drift, and the parity test in
tests/test_cli.py pins the bijection.

A service config describes a *workload of jobs*, not one job: how jobs
arrive (a seeded Poisson process or a JSON trace file), how many, which
tenant accounts they belong to, which scheduler admits them, and the
training workload each job runs. It is content-addressed the same way
training configs are (:func:`service_fingerprint`), which is what makes
service reports resumable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.config import DEFAULT_SEED
from repro.core.config import CHANNELS, _cli, check_choices
from repro.errors import ConfigurationError
from repro.utils.hashing import fingerprint_hash, init_fingerprint

ARRIVAL_KINDS = ("poisson", "trace")
SCHEDULER_NAMES = ("fifo", "fair_share", "cost_aware", "adaptive")


@dataclass(frozen=True)
class ServiceConfig:
    """One multi-tenant service run (arrivals x scheduler x workload)."""

    arrivals: str = field(
        default="poisson",
        metadata=_cli("job arrival process", ARRIVAL_KINDS),
    )
    rate: float = field(
        default=6.0, metadata=_cli("Poisson arrival rate (jobs/hour)")
    )
    tenants: int = field(
        default=8, metadata=_cli("number of jobs to admit over the run")
    )
    accounts: int = field(
        default=3,
        metadata=_cli("tenant accounts Poisson jobs cycle through "
                      "(fair-share accounting unit)"),
    )
    trace: str = field(
        default="",
        metadata=_cli("JSON workload file for --arrivals trace"),
    )
    scheduler: str = field(
        default="fifo",
        metadata=_cli("admission/placement policy", SCHEDULER_NAMES),
    )
    max_concurrent: int = field(
        default=4, metadata=_cli("jobs running concurrently before queueing")
    )

    # The training workload each Poisson job runs (trace entries may
    # override any TrainingConfig field per job).
    model: str = field(default="lr", metadata=_cli("model each job trains"))
    dataset: str = field(default="higgs", metadata=_cli("dataset each job uses"))
    workers: int = field(default=8, metadata=_cli("workers requested per job"))
    max_epochs: float = field(default=2.0, metadata=_cli("epoch budget per job"))
    data_scale: int = field(
        default=2000, metadata=_cli("instances per job (scaled-down runs)")
    )
    channel: str = field(
        default="s3",
        metadata=_cli("communication channel each job uses", CHANNELS),
    )
    seed: int = field(
        default=DEFAULT_SEED,
        metadata=_cli("seed for arrivals and every job's training run"),
    )

    def __post_init__(self) -> None:
        check_choices(self)
        if self.arrivals == "poisson" and not 0 < self.rate < math.inf:
            raise ConfigurationError(
                f"poisson arrivals need --rate > 0 and finite, got {self.rate}"
            )
        if self.arrivals == "trace" and not self.trace:
            raise ConfigurationError("--arrivals trace needs --trace FILE")
        if self.tenants < 1:
            raise ConfigurationError("--tenants must be >= 1")
        if self.accounts < 1:
            raise ConfigurationError("--accounts must be >= 1")
        if self.max_concurrent < 1:
            raise ConfigurationError("--max-concurrent must be >= 1")

    def job_kwargs(self) -> dict:
        """The base ``TrainingConfig`` kwargs every job starts from.

        Cache channels run prestarted: the service keeps a warm node
        pool, and the isolated baselines use the same setting so
        slowdown measures contention, not who paid the cold boot.
        """
        kwargs = dict(
            model=self.model,
            dataset=self.dataset,
            workers=self.workers,
            max_epochs=self.max_epochs,
            data_scale=self.data_scale,
            channel=self.channel,
            seed=self.seed,
        )
        if self.channel in ("memcached", "redis"):
            kwargs["channel_prestarted"] = True
        return kwargs


service_fingerprint = init_fingerprint


def service_hash(config: ServiceConfig) -> str:
    return fingerprint_hash(service_fingerprint(config))
