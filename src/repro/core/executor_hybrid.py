"""Hybrid (Cirrus-style) executor: Lambda workers + VM parameter server.

Each worker pushes its minibatch gradient to the PS (which applies the
update under a lock) and pulls the latest model — the right-hand side
of Figure 3. There is no global barrier: like Cirrus's SGD, updates
interleave, so workers check convergence on their local validation
shard and broadcast a stop flag through the PS's key space.

Only gradient-style algorithms make sense against a PS; the driver
restricts this executor to GA-SGD.
"""

from __future__ import annotations

import numpy as np

from repro.core.bsp_loop import crosses_epoch
from repro.core.context import JobContext, WorkerOutcome
from repro.faas.runtime import FunctionLifetime
from repro.simulation.commands import Compute, Get, ListKeys, Put, Sleep
from repro.utils.serialization import SizedPayload

STOP_PREFIX = "stop/"


def hybrid_worker(ctx: JobContext, rank: int):
    """Lambda worker speaking RPC to the VM parameter server.

    Timing-coupled (PS updates interleave with no barrier), so it only
    ever runs on the exact substrate — see TrainingConfig.timing_coupled.
    """
    cfg = ctx.config
    algo = ctx.stats(rank)
    ps = ctx.ps

    yield Sleep(ctx.startup_s, "startup")
    ctx.lifetimes[rank] = FunctionLifetime(ctx.limits, ctx.engine.now)
    yield Get(ctx.data_store, ctx.partition_key(rank), category="load")
    # The PS VM is still provisioning (~2 min); that gate is start-up
    # time in Figure 10's accounting, not communication.
    if ps.available_at > ctx.engine.now:
        yield Sleep(ps.available_at - ctx.engine.now, "startup")

    yield Compute(ctx.eval_seconds(rank), "compute")
    local_loss = algo.local_loss()
    ctx.record(rank, 0.0, local_loss)

    epoch_float = 0.0
    rounds = 0
    while epoch_float < cfg.max_epochs:
        gradient = algo.round_payload()
        yield Compute(ctx.round_seconds(rank), "compute")
        yield Put(
            ps,
            f"grad/{rank:05d}/{rounds:08d}",
            SizedPayload(np.asarray(gradient, dtype=np.float64), ctx.info.param_bytes),
        )
        pulled = yield Get(ps, ps.MODEL_KEY)
        algo.params = np.asarray(pulled.value)
        rounds += 1
        previous, epoch_float = epoch_float, epoch_float + algo.epochs_per_round

        if crosses_epoch(previous, epoch_float):
            yield Compute(ctx.eval_seconds(rank), "compute")
            local_loss = algo.local_loss()
            ctx.record(rank, epoch_float, local_loss)
            if ctx.converged(local_loss):
                yield Put(ps, f"{STOP_PREFIX}{rank:05d}", SizedPayload(int(rank), 8))
                break
            stop_keys = yield ListKeys(ps, STOP_PREFIX)
            if stop_keys:
                break
    return WorkerOutcome(rank, epoch_float, rounds, local_loss)
