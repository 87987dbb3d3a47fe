"""The multi-tenant service runtime: many jobs, one engine, shared capacity.

Three pieces:

* :class:`SharedServices` — the contention model. Every tenant's
  :class:`~repro.storage.base.ObjectStore` keeps its own data plane
  (no key collisions between jobs) but stores of the same *service
  class* share one :class:`~repro.simulation.resources.ServiceQueue`:
  all S3 stores compete for the same 64 connection slots, all tenants
  on one ElastiCache node for its thread pool. That shared queue is
  what makes a neighbour's traffic slow your transfers — the
  contention-induced slowdown the report measures — while leaving the
  statistical trajectory of every job untouched.

* :class:`BaselineProvider` — isolated-run ground truth. Each distinct
  granted config is trained once on a *private* engine (recording a
  replay trace when it is eligible); the isolated duration/cost are
  the denominators for slowdown and the inputs to cost-aware
  scheduling, and the traces let service jobs replay statistics with
  zero numpy work.

* :class:`ServiceRuntime` — the discrete-event service itself. A master
  process sleeps to each arrival instant and enqueues the request; a
  synchronous pump admits jobs through the scheduler while concurrency
  slots are free; each admitted job gets its own
  :class:`~repro.core.context.JobContext` on the *shared* engine
  (private clock-sharing, private cost meter) and is launched through
  the same :func:`~repro.core.driver.launch_job` path ``train()`` uses;
  a shepherd process joins the job's workers (following fault-injector
  respawns), finalizes and bills it with
  :func:`~repro.core.driver.finalize_job`, and re-pumps the queue.

Everything is simulated-deterministic: the records carry no host
wall-clock, so the same workload and seed produce byte-identical
reports on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import TrainingConfig
from repro.core.context import JobContext
from repro.core.driver import finalize_job, launch_job, train
from repro.core.results import RunResult
from repro.errors import SimulationError
from repro.simulation.commands import Join, Sleep
from repro.simulation.engine import Engine
from repro.simulation.resources import ServiceQueue
from repro.service.arrivals import JobRequest
from repro.service.schedulers import Scheduler
from repro.substrate import ExactSubstrate, ReplaySubstrate
from repro.sweep.artifacts import artifact_from_result, write_artifact
from repro.sweep.grid import SweepPoint, config_hash

BASELINE_EXPERIMENT = "baselines"


class SharedServices:
    """One capacity queue per storage service class, shared by tenants."""

    def __init__(self) -> None:
        self._queues: dict[str, ServiceQueue] = {}

    def contention_stats(self) -> dict[str, dict]:
        """Per-service-class booking pressure (simulation-deterministic).

        ``ops`` counts every booking the shared queue served across all
        tenants; ``busy_until`` is the latest booked completion. Both
        come from counters the queue maintains anyway, so reading them
        costs nothing on the hot path.
        """
        return {
            kind: {
                "slots": queue.slots,
                "ops": queue.ops_booked,
                "busy_until": round(queue.busy_until, 6),
            }
            for kind, queue in sorted(self._queues.items())
        }

    def adopt(self, store, kind: str) -> None:
        """Swap `store`'s private queue for the class-wide shared one."""
        queue = self._queues.get(kind)
        if queue is None:
            queue = ServiceQueue(store.profile.concurrency)
            self._queues[kind] = queue
        store.queue = queue

    def adopt_job(self, ctx: JobContext) -> None:
        """Wire a freshly launched job's stores into the shared capacity.

        The data plane always rides S3; an S3 communication channel
        shares that same regional capacity, caches share per-node
        queues (tenants on one node contend for its threads), DynamoDB
        is its own service. Cache nodes are treated as provisioned by
        the service at t=0 (a warm pool), so their absolute
        ``available_at`` is left untouched.
        """
        self.adopt(ctx.data_store, "s3")
        if ctx.channel is None:
            return
        kind = ctx.config.channel
        if kind not in ("s3", "dynamodb"):
            kind = f"{kind}:{ctx.config.cache_node}"
        self.adopt(ctx.channel.store, "s3" if kind == "s3" else kind)


class BaselineProvider:
    """Isolated results + replay traces per distinct config, memoized.

    Every eligible config replays its statistics, recording one trace
    per statistical fingerprint. Lazily computed baselines are
    persisted as ordinary sweep artifacts when ``artifacts_dir`` is
    set, so a resumed service run can prime from disk instead of
    re-training.
    """

    def __init__(
        self,
        artifacts_dir=None,
        results: dict[str, RunResult] | None = None,
        traces: dict[str, dict] | None = None,
    ) -> None:
        self.artifacts_dir = artifacts_dir
        self._results = dict(results or {})
        self._traces = dict(traces or {})

    @staticmethod
    def baseline_point(config: TrainingConfig) -> SweepPoint:
        from repro.core.config import config_fingerprint

        return SweepPoint(
            BASELINE_EXPERIMENT,
            config.describe(),
            config_kwargs=config_fingerprint(config),
        )

    def prime(self, artifacts: dict[str, dict]) -> None:
        from repro.sweep.artifacts import result_from_artifact

        for config_hash_, artifact in artifacts.items():
            self._results.setdefault(
                config_hash_, result_from_artifact(artifact)
            )

    def prime_traces(self, traces: dict[str, dict]) -> None:
        for stat_hash, trace in traces.items():
            self._traces.setdefault(stat_hash, trace)

    # -- internals --------------------------------------------------------
    def _replay_eligible(self, config: TrainingConfig) -> bool:
        # Timing-coupled protocols feed timing back into statistics
        # (exact-only by construction); faulted configs re-execute
        # rounds after a crash — keep those on the exact path too so
        # the fault plane is genuinely exercised.
        return not config.timing_coupled and not config.faults_enabled

    def _run_isolated(self, config: TrainingConfig) -> RunResult:
        record = (
            self._replay_eligible(config)
            and config.stat_hash not in self._traces
        )
        substrate = ExactSubstrate() if record else None
        result = train(config, substrate)
        if record:
            self._traces[config.stat_hash] = substrate.trace
        if self.artifacts_dir is not None:
            write_artifact(
                self.artifacts_dir,
                artifact_from_result(
                    self.baseline_point(config),
                    result,
                    substrate="record" if record else "exact",
                ),
            )
        return result

    # -- interface used by the runtime ------------------------------------
    def result(self, config: TrainingConfig) -> RunResult:
        """The config's isolated run (private engine, no contention)."""
        key = config_hash(config)
        cached = self._results.get(key)
        if cached is None:
            cached = self._run_isolated(config)
            self._results[key] = cached
        return cached

    def substrate_for(self, config: TrainingConfig):
        """A fresh substrate for one service job of this config."""
        if not self._replay_eligible(config):
            return None
        trace = self._traces.get(config.stat_hash)
        if trace is None:
            # Record even when the result was primed from an artifact:
            # one exact training buys replay for every service job of
            # this statistical fingerprint.
            self._results[config_hash(config)] = self._run_isolated(config)
            trace = self._traces.get(config.stat_hash)
        return None if trace is None else ReplaySubstrate(trace)


def _feasible_workers(kwargs: dict, granted: int, submitted: int) -> int:
    """Walk a scheduler's worker grant back toward the submission until
    the config clears pre-flight validation.

    Shrinking a fleet grows each worker's shard, so an aggressive grant
    can violate the Lambda memory envelope (§5.2); the first feasible
    count between the grant and the submitted size wins.
    """
    from repro.core.config import config_validity_error

    step = 1 if submitted >= granted else -1
    for candidate in range(granted, submitted + step, step):
        if config_validity_error({**kwargs, "workers": candidate}) is None:
            return candidate
    return submitted


@dataclass
class _Job:
    """Bookkeeping for one admitted job (simulation-internal)."""

    request: JobRequest
    config: TrainingConfig
    ctx: JobContext
    admitted_s: float
    granted: int
    submitted_workers: int


class ServiceRuntime:
    """Run a workload of training jobs through one shared engine."""

    def __init__(
        self,
        requests: list[JobRequest],
        scheduler: Scheduler,
        max_concurrent: int,
        baselines: BaselineProvider,
    ) -> None:
        self.requests = sorted(requests, key=lambda r: (r.arrival_s, r.job))
        self.scheduler = scheduler
        self.max_concurrent = max_concurrent
        self.baselines = baselines
        self.engine = Engine()
        self.shared = SharedServices()
        self.queue: list[JobRequest] = []
        self.running: dict[str, _Job] = {}
        self.tenant_busy_s: dict[str, float] = {}
        self.records: list[dict] = []
        self.results: dict[str, RunResult] = {}  # job id -> full RunResult
        # Filled after run(): per-service-class shared-queue pressure.
        self.service_stats: dict[str, dict] = {}

    # -- scheduler state view ---------------------------------------------
    @property
    def running_jobs(self) -> int:
        return len(self.running)

    def isolated_cost(self, request: JobRequest) -> float:
        return self.baselines.result(
            TrainingConfig(**request.config_kwargs)
        ).cost_total

    # -- simulation -------------------------------------------------------
    def run(self) -> list[dict]:
        """Simulate the whole workload; returns per-job records."""
        self.engine.spawn(self._master(), "service/master")
        self.engine.run()
        if self.queue or self.running:
            raise SimulationError(
                f"service run ended with {len(self.queue)} queued and "
                f"{len(self.running)} running job(s)"
            )
        self.records.sort(key=lambda r: r["job"])
        self.service_stats = self.shared.contention_stats()
        return self.records

    def _master(self):
        """Feed arrivals into the queue at their simulated instants."""
        for request in self.requests:
            delay = request.arrival_s - self.engine.now
            if delay > 0:
                yield Sleep(delay, "idle")
            self.queue.append(request)
            self._pump()

    def _pump(self) -> None:
        """Admit queued jobs through the scheduler while slots are free.

        Synchronous (no simulated time passes): runs inside the master
        on arrival and inside a shepherd on completion, so a freed slot
        is refilled at the exact completion instant.
        """
        while self.queue and len(self.running) < self.max_concurrent:
            index = self.scheduler.pick(list(self.queue), self)
            request = self.queue.pop(index)
            submitted = int(request.config_kwargs.get("workers", 1))
            granted = self.scheduler.workers_for(request, self)
            granted = _feasible_workers(request.config_kwargs, granted, submitted)
            kwargs = dict(request.config_kwargs)
            if granted != submitted:
                kwargs["workers"] = granted
            config = TrainingConfig(**kwargs)
            substrate = self.baselines.substrate_for(config)
            ctx = JobContext(config, substrate=substrate, engine=self.engine)
            launch_job(ctx, name_prefix=f"{request.job}/")
            self.shared.adopt_job(ctx)
            job = _Job(
                request=request,
                config=config,
                ctx=ctx,
                admitted_s=self.engine.now,
                granted=granted,
                submitted_workers=submitted,
            )
            self.running[request.job] = job
            self.engine.spawn(self._shepherd(job), f"{request.job}/shepherd")

    def _shepherd(self, job: _Job):
        """Wait out one job's workers (across respawns), then settle it."""
        ctx = job.ctx
        while True:
            live = [p for p in ctx.worker_procs.values() if p.alive]
            if not live:
                break
            # Joining any one live incarnation is enough: on wake the
            # loop re-reads worker_procs, which the fault injector has
            # already pointed at successors it spawned.
            yield Join(live[0])
        self._settle(job)
        self._pump()

    def _settle(self, job: _Job) -> None:
        """Finalize, bill and record one finished job; free its slot."""
        completed_s = self.engine.now
        result = finalize_job(job.ctx, job.admitted_s, completed_s)
        request = job.request
        del self.running[request.job]
        self.results[request.job] = result
        self.tenant_busy_s[request.tenant] = (
            self.tenant_busy_s.get(request.tenant, 0.0)
            + result.duration_s * job.granted
        )
        baseline = self.baselines.result(job.config)
        events = result.meta.get("events", {})
        self.records.append({
            "job": request.job,
            "tenant": request.tenant,
            "priority": request.priority,
            "config_hash": config_hash(job.config),
            "arrival_s": request.arrival_s,
            "admitted_s": job.admitted_s,
            "completed_s": completed_s,
            "queue_s": job.admitted_s - request.arrival_s,
            "run_s": result.duration_s,
            "completion_s": completed_s - request.arrival_s,
            "workers_submitted": job.submitted_workers,
            "workers_granted": job.granted,
            "cost_dollars": result.cost_total,
            "isolated_run_s": baseline.duration_s,
            "isolated_cost": baseline.cost_total,
            "slowdown": result.duration_s / baseline.duration_s,
            "converged": result.converged,
            "final_loss": result.final_loss,
            "epochs": result.epochs,
            "crashes": events.get("crashes", 0),
            "gc_collected_keys": events.get("gc_collected_keys", 0),
        })
