"""The `train()` driver: build a job, simulate it, bill it, report it.

This is the library's main entry point. Given a
:class:`TrainingConfig` it constructs the simulated infrastructure for
the configured platform, runs the worker processes to completion on the
discrete-event engine, and returns a :class:`RunResult` with runtime,
cost, convergence trajectory and the Figure-10 time breakdown.
"""

from __future__ import annotations

import numpy as np

from repro.comm.protocols import seed_global_model
from repro.core.config import TrainingConfig
from repro.core.context import JobContext, WorkerOutcome
from repro.core.executor_faas import faas_async_worker, faas_bsp_worker
from repro.core.executor_hybrid import hybrid_worker
from repro.core.executor_iaas import iaas_worker
from repro.core.results import RunResult
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.simulation.tracing import TimeBreakdown


def train(config: TrainingConfig, substrate=None) -> RunResult:
    """Run one simulated training job end to end.

    ``substrate`` is the statistical backend: ``None`` for the default
    (:func:`~repro.substrate.make_substrate`), an
    :class:`~repro.substrate.exact.ExactSubstrate` whose ``.trace``
    outlives the call to keep the convergence trace, or a
    :class:`~repro.substrate.replay.ReplaySubstrate` to re-emit one with
    zero numpy work — bit-identical duration, cost, history and
    breakdown for BSP configs.
    """
    ctx = JobContext(config, substrate=substrate)
    launch_job(ctx)
    ctx.engine.run()
    return finalize_job(ctx, 0.0, ctx.engine.now)


def launch_job(ctx: JobContext, name_prefix: str = "") -> None:
    """Build `ctx`'s platform and spawn its workers on its engine.

    Extracted from :func:`train` so the multi-tenant service can launch
    many jobs on one *shared* engine: each job keeps its own context
    (stores, meter, fault plan) while its worker processes interleave
    with every other tenant's on one clock. With the default empty
    prefix and a private engine this is exactly the classic path.
    ``name_prefix`` (e.g. ``"tenantA/"``) keeps process names unique
    and attributable in a shared engine's trace.
    """
    executor = _setup_platform(ctx)
    for rank in range(ctx.config.workers):
        proc = ctx.engine.spawn(
            executor(ctx, rank), name=f"{name_prefix}worker-{rank}"
        )
        ctx.worker_procs[rank] = proc
        ctx.all_worker_procs.append(proc)
    if ctx.fault_plan.crashes_enabled:
        ctx.fault_injector = FaultInjector(ctx.fault_plan)
        ctx.fault_injector.install(ctx, executor, name_prefix=name_prefix)


def finalize_job(ctx: JobContext, started_at: float, ended_at: float) -> RunResult:
    """Bill `ctx`'s finished job and assemble its :class:`RunResult`.

    ``started_at``/``ended_at`` are absolute engine instants — 0 and
    ``engine.now`` for an isolated run, the job's admission and last
    worker exit for a service job on a shared clock. Billing and the
    reported duration are computed relative to that window, so a
    tenant pays for its own span, not the service's whole day.
    """
    duration = ended_at - started_at
    _bill_job(ctx, ctx.all_worker_procs, started_at, ended_at)

    # Outcomes come from each rank's *final* incarnation; earlier ones
    # were killed by the fault injector and return nothing.
    config = ctx.config
    final_procs = [ctx.worker_procs[rank] for rank in range(config.workers)]
    outcomes = [p.result for p in final_procs if isinstance(p.result, WorkerOutcome)]
    if not outcomes:
        raise ConfigurationError("no worker produced an outcome")
    final_loss = float(np.median([o.final_loss for o in outcomes]))
    epochs = max(o.epochs for o in outcomes)
    rounds = max(o.rounds for o in outcomes)

    traces = _per_rank_traces(ctx)
    result = RunResult(
        config=config,
        converged=ctx.converged(final_loss),
        final_loss=final_loss,
        duration_s=duration,
        cost_total=ctx.meter.total,
        cost_breakdown=ctx.meter.breakdown(),
        epochs=epochs,
        comm_rounds=rounds,
        history=ctx.history,
        breakdown=TimeBreakdown.max_per_category(traces),
        per_worker=traces,
        checkpoints=ctx.checkpoint_count,
        final_accuracy=ctx.substrate.final_accuracy(ctx),
        meta={"events": ctx.fault_events()},
    )
    ctx.substrate.finalize(ctx, result, outcomes)
    return result


def _per_rank_traces(ctx: JobContext) -> list[TimeBreakdown]:
    """One TimeBreakdown per rank, folding in killed incarnations.

    A fault-free run has exactly one process per rank, whose trace is
    returned as-is (bit-identical to the pre-fault-plane driver). Under
    crash injection a rank's simulated time is split across
    incarnations; summing the categories keeps ``per_worker`` rank-
    shaped and makes the recovery overhead visible in the breakdown.
    """
    workers = ctx.config.workers
    if len(ctx.all_worker_procs) == workers:
        return [proc.trace for proc in ctx.all_worker_procs]
    by_rank: list[list] = [[] for _ in range(workers)]
    for proc in ctx.all_worker_procs:
        # "worker-3", "worker-3#2", or a service job's "tenantA/worker-3#2".
        rank = int(proc.name.split("#", 1)[0].rsplit("-", 1)[1])
        by_rank[rank].append(proc.trace)
    merged = []
    for traces in by_rank:
        combined = TimeBreakdown()
        for trace in traces:
            for category, seconds in trace.seconds.items():
                combined.add(category, seconds)
        merged.append(combined)
    return merged


def _setup_platform(ctx: JobContext):
    """Configure infrastructure and pick the executor for the platform."""
    config = ctx.config
    if config.platform == "faas":
        ctx.setup_faas()
        if config.protocol == "asp":
            init = ctx.stats(0).params.astype(np.float64)
            seed_global_model(ctx.channel.store, init, ctx.info.param_bytes)
            return faas_async_worker
        return faas_bsp_worker
    if config.platform == "iaas":
        ctx.setup_iaas()
        return iaas_worker
    if config.platform == "hybrid":
        if config.algorithm.lower().replace("-", "_") not in ("ga_sgd", "ga", "sgd"):
            raise ConfigurationError(
                "the hybrid parameter-server architecture trains with GA-SGD "
                "(Cirrus-style gradient pushes)"
            )
        ctx.setup_hybrid()
        return hybrid_worker
    raise ConfigurationError(f"unknown platform {config.platform!r}")


def _bill_job(ctx: JobContext, procs, started_at: float, ended_at: float) -> None:
    """Charge compute resources for the whole job at its end.

    Instants are absolute engine times; per-second resources (VMs,
    ElastiCache) are billed for the job's own window, and a process
    that never finished (killed daemon-style at engine teardown) is
    billed as if it ran to the job's end.
    """
    config = ctx.config
    meter = ctx.meter
    duration = ended_at - started_at
    if config.platform in ("faas", "hybrid"):
        for proc in procs:
            started = proc.started_at if proc.started_at is not None else started_at
            finished = proc.finished_at if proc.finished_at is not None else ended_at
            meter.bill_lambda(
                config.lambda_memory_gb, max(0.0, finished - started), invocations=1
            )
        if ctx.extra_invocations:
            meter.bill_lambda(0.0, 0.0, invocations=ctx.extra_invocations)
    if config.platform == "iaas":
        meter.bill_vm(config.instance, duration, count=config.workers)
    if config.platform == "hybrid":
        meter.bill_vm(config.ps_instance, duration, count=1)
    if ctx.channel is not None and ctx.channel.node is not None:
        meter.bill_elasticache(ctx.channel.node, duration)
