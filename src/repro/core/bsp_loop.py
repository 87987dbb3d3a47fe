"""Shared BSP training loop used by the FaaS and IaaS executors.

One communication round:

1. run the algorithm's local computation (charged as simulated compute);
2. exchange the statistic vector (gradient / local model / consensus
   term / k-means sufficient statistics) through the platform's
   aggregation mechanism — the payload is exactly the logical model
   size, matching Table 3's per-exchange measurements;
3. apply the merged statistic;
4. at epoch boundaries, evaluate the local validation loss on the
   freshly merged state and run a tiny (16-byte) loss all-reduce, so
   every worker sees the identical global loss — the stop decision is
   lockstep-consistent and the rendezvous can never deadlock.

The loss exchange costs one extra metadata-sized round per epoch
(negligible next to the model-sized exchanges), and removes any lag
between reaching the threshold and stopping — important for ADMM,
whose rounds span ten epochs.

Fault recovery enters through two seams. The ``pre_round`` hook runs
at every round boundary with the loop's full :class:`RoundState` —
atomically with the loss record that may precede the boundary, since
no command is yielded in between — which is where the FaaS executor
persists its recovery checkpoint. A respawned incarnation then passes
that state back via ``resume``: the loop skips the baseline
evaluation (its record survived the crash) and continues from the
checkpointed round, with the substrate restored so the re-executed
statistics are bit-identical to what the dead incarnation would have
computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

from repro.core.context import JobContext, WorkerOutcome
from repro.simulation.commands import Compute

EPS = 1e-9
LOSS_WIRE_BYTES = 16


def crosses_epoch(epoch_float: float, next_epoch: float) -> bool:
    """Does a round from `epoch_float` to `next_epoch` end an epoch?

    Shared with the lockstep pass (:mod:`repro.substrate.lockstep`), which
    must evaluate losses at exactly the rounds this loop does.
    """
    return math.floor(next_epoch + EPS) > math.floor(epoch_float + EPS)


@dataclass(frozen=True)
class RoundState:
    """The BSP loop's position at a round boundary (picklable)."""

    epoch_float: float
    rounds: int
    local_loss: float
    global_loss: float


# An exchange callback receives (round_id, wire_vector, logical_nbytes)
# and returns a generator yielding simulation commands, whose return
# value is the merged vector.
ExchangeFn = Callable[[str, np.ndarray, int], Generator]
# Optional hook run before each round with the loop's RoundState (FaaS
# uses it for the Figure-5 lifetime check and recovery checkpoints).
PreRoundHook = Callable[[RoundState], Generator]


def bsp_rounds(
    ctx: JobContext,
    rank: int,
    exchange: ExchangeFn,
    pre_round: PreRoundHook | None = None,
    resume: RoundState | None = None,
):
    """Generator running BSP rounds to convergence; returns WorkerOutcome."""
    cfg = ctx.config
    algo = ctx.stats(rank)  # substrate view: exact, per-rank, or replay

    if resume is None:
        # Baseline evaluation (loss at initialisation).
        yield Compute(ctx.eval_seconds(rank), "compute")
        local_loss = algo.local_loss()
        ctx.record(rank, 0.0, local_loss)
        epoch_float = 0.0
        rounds = 0
        global_loss = local_loss
    else:
        # Recovered incarnation: the baseline (and every record up to
        # the checkpoint) is already in the history; pick up mid-run.
        epoch_float = resume.epoch_float
        rounds = resume.rounds
        local_loss = resume.local_loss
        global_loss = resume.global_loss

    while epoch_float < cfg.max_epochs:
        if pre_round is not None:
            yield from pre_round(
                RoundState(epoch_float, rounds, local_loss, global_loss)
            )

        payload = algo.round_payload()
        yield Compute(ctx.round_seconds(rank), "compute")
        wire = np.asarray(payload, dtype=np.float64)
        merged = yield from exchange(f"{rounds:08d}", wire, ctx.wire_bytes)
        algo.apply(merged)

        next_epoch = epoch_float + algo.epochs_per_round
        crossing = crosses_epoch(epoch_float, next_epoch)
        rounds += 1
        epoch_float = next_epoch

        if crossing:
            yield Compute(ctx.eval_seconds(rank), "compute")
            local_loss = algo.local_loss()
            loss_wire = np.array([local_loss, 1.0])
            merged_loss = yield from exchange(
                f"{rounds:08d}-loss", loss_wire, LOSS_WIRE_BYTES
            )
            # Mean-reduce yields [mean, 1]; sum-reduce yields [sum, w].
            global_loss = (
                merged_loss[0] / merged_loss[1] if merged_loss[1] > 0 else math.inf
            )
            ctx.record(rank, epoch_float, local_loss)
            if ctx.converged(global_loss):
                break
    return WorkerOutcome(rank, epoch_float, rounds, global_loss)
