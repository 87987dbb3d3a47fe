"""Job context: shared state wiring a training run together.

Built once per run by the driver, the context owns the engine, the cost
meter, the communication channel and all derived timing constants —
the *systems* half of a run. The *statistical* half (dataset shards,
per-worker algorithm state, losses) lives behind the pluggable
substrate (:mod:`repro.substrate`): executors reach it exclusively via
:meth:`JobContext.stats`, so an exact BSP run and a replay of its
trace drive identical command streams through the engine.

Executor generators receive the context plus their rank and interact
with the simulated world exclusively through `yield`ed commands and
context helpers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.core.config import (
    ANGEL_COMPUTE_FACTOR,
    ANGEL_STARTUP_EXTRA_S,
    TrainingConfig,
    faas_memory_error,
)
from repro.core.results import LossPoint
from repro.comm.patterns import RetentionWindow, allreduce, scatter_reduce
from repro.data.datasets import DatasetSpec, get_spec
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.faas.limits import LambdaLimits, lambda_speed_factor
from repro.faas.runtime import FunctionLifetime, faas_startup_seconds
from repro.faults.plan import FaultPlan, StorageFaultPolicy
from repro.iaas.cluster import VMCluster
from repro.iaas.mpi import MPICommunicator
from repro.iaas.ps import ParameterServer, make_parameter_server
from repro.iaas.vm import get_instance
from repro.models.zoo import ModelInfo, get_model_info
from repro.pricing.meter import CostMeter
from repro.simulation.engine import Engine
from repro.storage.services import Channel, S3Store, make_channel
from repro.substrate import make_substrate
from repro.utils.serialization import SizedPayload



@dataclass
class WorkerOutcome:
    """Returned by executor generators when a worker finishes."""

    rank: int
    epochs: float
    rounds: int
    final_loss: float


class JobContext:
    """Everything a worker generator needs, keyed by rank."""

    def __init__(self, config: TrainingConfig, substrate=None, engine=None) -> None:
        self.config = config
        self.spec: DatasetSpec = get_spec(config.dataset)
        self.info: ModelInfo = get_model_info(
            config.model, config.dataset, k=config.k, l2=config.l2
        )
        # `engine` lets several job graphs share one simulated clock
        # (the multi-tenant service in repro.service); the default — a
        # private engine starting at t=0 — is the classic isolated run.
        # The cost meter is always per-job: on a shared engine it is
        # what makes per-tenant dollars attributable.
        self.engine = Engine() if engine is None else engine
        self.meter = CostMeter()
        self.scale = config.data_scale or self.spec.default_scale

        # The statistical half of the run. The exact substrate (BSP)
        # synthesizes the dataset, builds one algorithm per rank and
        # computes the whole statistical run up front; the per-rank one
        # (ASP, hybrid PS) builds the same and trains in the engine; a
        # replay builds nothing and serves every statistical question
        # from its trace.
        self.substrate = make_substrate(substrate, config)
        self.substrate.attach(self)

        # The fault plane: a pure, seeded schedule of crashes, cold
        # starts and transient storage errors (repro.faults). The plan
        # always exists (cheap, empty when all rates are zero); the
        # injector is installed by the driver only when crashes are on.
        self.fault_plan = FaultPlan.from_config(config)
        self.fault_injector = None

        # Training data is staged in S3 for every platform (paper §5.1).
        self.data_store = S3Store(meter=self.meter)
        self._wire_store_faults(self.data_store, "data")
        for rank in range(config.workers):
            self.data_store.seed_object(
                self.partition_key(rank),
                SizedPayload(None, self.spec.partition_bytes(config.workers)),
            )

        # Platform-specific infrastructure, built lazily by the driver.
        self.channel: Channel | None = None
        self.mpi: MPICommunicator | None = None
        self.cluster: VMCluster | None = None
        self.ps: ParameterServer | None = None
        self.limits = LambdaLimits(
            memory_gb=config.lambda_memory_gb, lifetime_s=config.lambda_lifetime_s
        )
        self.lifetimes: dict[int, FunctionLifetime] = {}

        # Shared observability (pure bookkeeping, no simulated effects).
        self.history: list[LossPoint] = []
        self.checkpoint_count = 0
        self.extra_invocations = 0

        # Worker process registry: `worker_procs[rank]` is the rank's
        # *current* incarnation (the injector swaps it on respawn);
        # `all_worker_procs` keeps every incarnation for billing.
        self.worker_procs: dict[int, object] = {}
        self.all_worker_procs: list = []
        # One authoritative invocation counter per rank, shared by
        # Figure-5 lifetime reinvocations AND crash respawns: both
        # index the same cold/{rank} jitter stream, so a single
        # counter keeps every draw distinct (and documents how many
        # function invocations the rank consumed).
        self._invocations: dict[int, int] = {}

        self._speed_cache: dict[int, float] = {}

    def next_invocation(self, rank: int) -> int:
        """Claim the next invocation number for `rank` (initial run = 1)."""
        count = self._invocations.get(rank, 1) + 1
        self._invocations[rank] = count
        return count

    def _wire_store_faults(self, store, label: str) -> None:
        """Attach the run's fault policy/GC mode to a storage service."""
        if self.fault_plan.storage_faults_enabled:
            store.fault_policy = StorageFaultPolicy(self.fault_plan, label)
        if self.fault_plan.crashes_enabled:
            # Respawned workers re-read round files their predecessor
            # consumed; last-reader GC would make that a deadlock. A
            # retention window defers collection instead: the fault
            # injector advances its floor as checkpoints become
            # durable, and rounds no successor can re-execute are
            # swept — long crash-injected runs stay bounded in memory.
            store.retention = RetentionWindow()

    # ------------------------------------------------------------------
    # Infrastructure setup (called by the driver)
    # ------------------------------------------------------------------
    def setup_faas(self) -> None:
        self.channel = make_channel(
            self.config.channel, meter=self.meter, node=self.config.cache_node
        )
        if self.config.channel_prestarted:
            self.channel.store.available_at = 0.0
        self._wire_store_faults(self.channel.store, "channel")
        self.startup_s = faas_startup_seconds(self.config.workers)
        self._check_faas_memory()

    def setup_iaas(self) -> None:
        self.cluster = VMCluster.build(self.config.instance, self.config.workers)
        self.mpi = MPICommunicator(self.cluster)
        self.startup_s = self.cluster.startup_s
        if self.config.system == "angel":
            self.startup_s += ANGEL_STARTUP_EXTRA_S

    def setup_hybrid(self) -> None:
        self.startup_s = faas_startup_seconds(self.config.workers)
        init = self.stats(0).params.astype(np.float64).copy()
        # The PS applies each worker's gradient; dividing the rate by w
        # keeps the effective step equivalent to one averaged update.
        self.ps = make_parameter_server(
            self.config.ps_instance,
            init_params=init,
            logical_param_bytes=self.info.param_bytes,
            lr=self.config.lr / self.config.workers,
            rpc=self.config.rpc,
            lambda_memory_gb=self.config.lambda_memory_gb,
            meter=self.meter,
        )
        self._check_faas_memory()

    def _check_faas_memory(self) -> None:
        """Enforce the 3 GB Lambda memory envelope (paper §5.2 OOM case).

        The arithmetic lives in :func:`repro.core.config.
        faas_memory_error` so the scenario fuzzer's validity predicate
        and this setup-time check can never disagree.
        """
        error = faas_memory_error(self.config)
        if error is not None:
            raise OutOfMemoryError(error)

    # ------------------------------------------------------------------
    # Statistical substrate
    # ------------------------------------------------------------------
    def stats(self, rank: int):
        """Worker `rank`'s statistical view (the substrate seam).

        Executors must route every statistical call — loss evaluations,
        round structure, and on the timing-coupled paths payloads —
        through this, so exact and replayed runs stay interchangeable.
        """
        return self.substrate.stats(rank)

    # ------------------------------------------------------------------
    # Timing helpers
    # ------------------------------------------------------------------
    def worker_speed(self, rank: int) -> float:
        """Training throughput of worker `rank` vs the reference worker."""
        if rank in self._speed_cache:
            return self._speed_cache[rank]
        cfg = self.config
        if cfg.platform in ("faas", "hybrid"):
            base = lambda_speed_factor(cfg.lambda_memory_gb)
        else:
            instance = get_instance(cfg.instance)
            if instance.gpu and self.info.kind == "supervised" and not self.info.convex:
                # Deep models on GPU instances run at GPU throughput.
                base = (
                    self.info.compute.gpu_speedup_m60
                    if instance.gpu == "m60"
                    else self.info.compute.gpu_speedup_t4
                )
            else:
                base = instance.relative_speed
            if cfg.system == "angel":
                base /= ANGEL_COMPUTE_FACTOR
        jitter = cfg.straggler_jitter
        denom = max(1, cfg.workers - 1)
        speed = base / (1.0 + jitter * rank / denom)
        self._speed_cache[rank] = speed
        return speed

    def _work_seconds(self, rank: int, instances: float, iterations: float) -> float:
        profile = self.info.compute
        raw = instances * profile.per_instance_s + iterations * profile.per_iteration_s
        return raw / self.worker_speed(rank)

    def round_seconds(self, rank: int) -> float:
        instances, iterations = self.stats(rank).round_work()
        # Compute profiles are calibrated on *logical* data volumes.
        return self._work_seconds(rank, instances * self.scale, iterations)

    def eval_seconds(self, rank: int) -> float:
        instances, iterations = self.stats(rank).eval_work()
        profile = self.info.compute
        raw = (
            instances * self.scale * profile.per_instance_s * profile.eval_fraction
            + iterations * profile.per_iteration_s
        )
        return raw / self.worker_speed(rank)

    # ------------------------------------------------------------------
    # Communication helpers
    # ------------------------------------------------------------------
    @property
    def wire_bytes(self) -> int:
        """Logical bytes of one statistic payload."""
        if self.info.kind == "kmeans":
            # Sufficient statistics: per-cluster sums + counts.
            return self.info.k * (self.spec.n_features + 1) * 8
        return self.info.param_bytes

    def bind_exchange(self, rank: int) -> Callable[[str, int], Iterator]:
        """`rank`'s FaaS exchange, bound once: ``(round_id, nbytes)`` -> the
        channel pattern's generator for one synchronous round."""
        if self.channel is None:
            raise ConfigurationError("FaaS exchange requires a channel")
        pattern = allreduce if self.config.pattern == "allreduce" else scatter_reduce
        return functools.partial(
            pattern, self.channel.store, rank, self.config.workers,
            poll_interval=self.config.poll_interval_s,
        )

    def partition_key(self, rank: int) -> str:
        return f"data/{self.config.dataset}/part_{rank:05d}"

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def record(self, rank: int, epoch: float, loss: float) -> None:
        if not math.isfinite(loss):
            loss = float("inf")
        self.history.append(
            LossPoint(time_s=self.engine.now, epoch=epoch, loss=loss, worker=rank)
        )

    def fault_events(self) -> dict:
        """Structured reliability summary (RunResult.meta / artifacts)."""
        events = {
            "checkpoints": self.checkpoint_count,
            "lifetime_reinvocations": self.extra_invocations,
            "crashes": 0,
            "reincarnations": 0,
            "restarts": 0,
            "recovery_checkpoints": 0,
            "storage_errors": 0,
            "storage_retries": 0,
            "storage_backoff_s": 0.0,
            "storage_exhaustions": 0,
            "gc_collected_keys": 0,
        }
        if self.fault_injector is not None:
            injected = self.fault_injector.events()
            events["crashes"] = injected["crashes"]
            events["reincarnations"] = injected["reincarnations"]
            events["restarts"] = injected["restarts"]
            events["recovery_checkpoints"] = injected["recovery_checkpoints"]
        stores = [self.data_store]
        if self.channel is not None:
            stores.append(self.channel.store)
        for store in stores:
            events["storage_errors"] += store.fault_events["storage_errors"]
            events["storage_retries"] += store.fault_events["retries"]
            events["storage_backoff_s"] += store.fault_events["backoff_s"]
            events["storage_exhaustions"] += store.fault_events["exhaustions"]
            if store.retention is not None:
                events["gc_collected_keys"] += store.retention.collected
        return events

    def converged(self, loss: float) -> bool:
        return self.config.converged(loss)
