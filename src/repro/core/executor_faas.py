"""FaaS (LambdaML) executors: BSP and asynchronous worker loops.

The BSP loop is the paper's job execution sequence (§3.1): load data,
compute statistics, send statistics, aggregate, update, repeat — with
the Figure-5 lifetime monitor checkpointing to S3 and re-invoking when
the 15-minute wall approaches.

Under crash injection (``TrainingConfig.crash_rate`` / ``mttf_s``) the
same Figure-5 machinery turns into *recovery* checkpointing: every
round boundary persists a checkpoint to S3, and a killed worker's
successor incarnation (spawned by :class:`~repro.faults.injector.
FaultInjector` with a :class:`~repro.faults.injector.WorkerResume`)
pays a cold start, re-loads its partition and checkpoint, and resumes
the BSP loop from the checkpointed round state — replaying the
identical statistical stream, so only clocks and dollars move. A
checkpoint on the simulated wire is its size alone: the round state
it stands for is what the successor resumes from.

The asynchronous loop follows SIREN-style S-ASP (§3.2.4): a single
global model lives in the channel; workers read-modify-write it per
iteration with no coordination, decaying the learning rate 1/sqrt(T).
"""

from __future__ import annotations

import functools
import math

from repro.comm.protocols import (
    async_read_model,
    async_should_stop,
    async_signal_stop,
    async_write_model,
)
from repro.core.bsp_loop import RoundState, bsp_rounds
from repro.core.context import JobContext, WorkerOutcome
from repro.errors import FunctionTimeoutError, TransientStorageError
from repro.faas.checkpoint import checkpoint_bytes, checkpoint_key
from repro.faas.runtime import REINVOKE_OVERHEAD_S, FunctionLifetime
from repro.faults.injector import WorkerResume
from repro.simulation.commands import Compute, Get, Put, Sleep
from repro.utils.serialization import SizedPayload


def faas_bsp_worker(ctx: JobContext, rank: int, resume: WorkerResume | None = None):
    """Synchronous LambdaML worker (generator for the engine).

    ``resume`` is only ever passed by the fault injector: it marks this
    generator as the successor of a crashed incarnation, carrying the
    cold-start latency and the round boundary to continue from
    (``None`` when the predecessor died before its first durable
    checkpoint — then everything restarts from round 0).
    """
    injector = ctx.fault_injector
    try:
        if resume is None:
            yield Sleep(ctx.startup_s, "startup")
        else:
            yield Sleep(resume.cold_start_s, "startup")
        lifetime = FunctionLifetime(ctx.limits, ctx.engine.now)
        if resume is not None:
            lifetime.incarnations = resume.incarnation
        ctx.lifetimes[rank] = lifetime
        yield Get(ctx.data_store, ctx.partition_key(rank), category="load")

        round_state: RoundState | None = None
        if resume is not None and resume.round_state is not None:
            # State reload: fetch the checkpoint the predecessor wrote.
            yield Get(ctx.data_store, checkpoint_key(rank), category="checkpoint")
            round_state = resume.round_state

        def pre_round(state: RoundState):
            """Round-boundary bookkeeping: recovery checkpoint + Figure 5."""
            if injector is not None and injector.should_checkpoint(rank, state.rounds):
                # Persist a recovery checkpoint *before* the round so a
                # crash anywhere inside it resumes from this boundary. The
                # state is saved only after the Put completes: a
                # checkpoint is recoverable once durable, not before.
                yield from write_checkpoint(ctx, rank)
                ctx.checkpoint_count += 1
                injector.save_recovery(rank, state)
            round_estimate = ctx.round_seconds(rank)
            if round_estimate > ctx.limits.lifetime_s - ctx.limits.checkpoint_margin_s:
                raise FunctionTimeoutError(
                    f"a single round needs {round_estimate:.0f}s, which cannot fit in "
                    f"one {ctx.limits.lifetime_s:.0f}s function lifetime "
                    "(the paper's unsupported >15-minute-iteration case)"
                )
            if lifetime.needs_checkpoint(ctx.engine.now, round_estimate):
                yield from checkpoint_and_reinvoke(ctx, rank)
                lifetime.reincarnate(ctx.engine.now)

        # ctx.exchange returns the pattern's generator itself, so a resume
        # walks worker -> bsp_rounds -> pattern, with no pass-through frame.
        outcome = yield from bsp_rounds(
            ctx, rank, functools.partial(ctx.exchange, rank),
            pre_round=pre_round, resume=round_state,
        )
    except TransientStorageError:
        if injector is None or not injector.crashes_enabled:
            raise  # no recovery machinery running: the job fails
        # A storage op gave up past its retry budget: this function
        # dies exactly like a crashed one. Hand off to the injector,
        # which spawns the successor incarnation from the last durable
        # checkpoint; returning a non-WorkerOutcome makes the driver
        # ignore this incarnation's (partial) result.
        injector.recover_from_storage_exhaustion(rank)
        return None
    return outcome


def write_checkpoint(ctx: JobContext, rank: int):
    """Persist `rank`'s checkpoint to the data store (simulated: its size)."""
    nbytes = checkpoint_bytes(ctx.info.param_bytes)
    yield Put(
        ctx.data_store, checkpoint_key(rank), SizedPayload(None, nbytes),
        category="checkpoint",
    )


def checkpoint_and_reinvoke(ctx: JobContext, rank: int):
    """Figure-5 mechanism: save state to S3, self-trigger a successor."""
    yield from write_checkpoint(ctx, rank)
    # Cold start of the successor function plus reloading the
    # checkpoint; the fault plan's deterministic jitter widens the cold
    # start when the config asks for variance (cold_start_jitter > 0).
    # The invocation number comes from the context's shared counter so
    # lifetime reinvocations and crash respawns never reuse a draw.
    cold = ctx.fault_plan.cold_start_s(
        rank, ctx.next_invocation(rank), REINVOKE_OVERHEAD_S
    )
    yield Sleep(cold, "checkpoint")
    yield Get(ctx.data_store, checkpoint_key(rank), category="checkpoint")
    ctx.checkpoint_count += 1
    ctx.extra_invocations += 1


def faas_async_worker(ctx: JobContext, rank: int):
    """Asynchronous (S-ASP) LambdaML worker.

    Timing-coupled (every read-modify-write interleaves), so it only
    ever runs on the exact substrate — the view below is always a real
    algorithm with a model and a shard.
    """
    cfg = ctx.config
    algo = ctx.stats(rank)  # metered: its gradient/loss are the model's
    shard = algo.shard
    store = ctx.channel.store
    iters_per_epoch = shard.iterations_per_epoch
    per_iter_s = ctx.round_seconds(rank)  # GA round == one iteration

    yield Sleep(ctx.startup_s, "startup")
    ctx.lifetimes[rank] = FunctionLifetime(ctx.limits, ctx.engine.now)
    yield Get(ctx.data_store, ctx.partition_key(rank), category="load")

    yield Compute(ctx.eval_seconds(rank), "compute")
    params = yield from async_read_model(store)
    params = params.astype(algo.params.dtype)
    local_loss = algo.loss(params, shard.X_val, shard.y_val)
    ctx.record(rank, 0.0, local_loss)

    epoch = 0
    rounds = 0
    batches = iter(())
    while epoch < cfg.max_epochs:
        lr_t = cfg.lr / math.sqrt(epoch + 1.0)  # 1/sqrt(T) decay [104]
        for _ in range(iters_per_epoch):
            try:
                X_batch, y_batch = next(batches)
            except StopIteration:
                batches = shard.epoch_batches()
                X_batch, y_batch = next(batches)
            grad = algo.gradient(params, X_batch, y_batch)
            params = params - (lr_t * grad).astype(params.dtype, copy=False)
            yield Compute(per_iter_s, "compute")
            yield from async_write_model(store, params, ctx.info.param_bytes)
            fresh = yield from async_read_model(store)
            params = fresh.astype(params.dtype)
            rounds += 1
        epoch += 1
        yield Compute(ctx.eval_seconds(rank), "compute")
        local_loss = algo.loss(params, shard.X_val, shard.y_val)
        ctx.record(rank, float(epoch), local_loss)
        if ctx.converged(local_loss):
            yield from async_signal_stop(store, rank)
            break
        stopped = yield from async_should_stop(store)
        if stopped:
            break
    return WorkerOutcome(rank, float(epoch), rounds, local_loss)
