"""Shared BSP training loop used by the FaaS and IaaS executors.

One communication round:

1. charge the algorithm's local computation as simulated compute;
2. exchange the statistic (gradient / local model / consensus term /
   k-means sufficient statistics) through the platform's aggregation
   mechanism — the payload is exactly the logical model size, matching
   Table 3's per-exchange measurements;
3. at epoch boundaries, charge the local validation-loss evaluation and
   run a tiny (16-byte) loss all-reduce, after which every worker holds
   the identical global loss — the stop decision is lockstep-consistent
   and the rendezvous can never deadlock.

The loop simulates only time and dollars: the exchange moves byte
counts, and every statistic it reads — local and global losses, epochs
per round — comes from the rank's substrate view, whose values the
lockstep pass (:mod:`repro.substrate.lockstep`) computed before the
engine started.

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
checkpointed round and evaluation index, so the re-executed rounds
read exactly the statistics the dead incarnation read — the view is
addressed by that index and holds no position of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator

from repro.core.context import JobContext, WorkerOutcome
from repro.simulation.commands import Compute

EPS = 1e-9
LOSS_WIRE_BYTES = 16


def crosses_epoch(epoch_float: float, next_epoch: float) -> bool:
    """Does a round from `epoch_float` to `next_epoch` end an epoch?

    Shared with the lockstep pass (:mod:`repro.substrate.lockstep`), which
    must evaluate losses at exactly the rounds this loop does, and with
    the hybrid executor's evaluations.
    """
    return math.floor(next_epoch + EPS) > math.floor(epoch_float + EPS)


@dataclass(frozen=True)
class RoundState:
    """The BSP loop's position at a round boundary (picklable).

    ``evaluations`` counts the losses the rank has read from its view;
    each read leaves one history record, so it is also how many of the
    rank's records a successor resuming here keeps. ``global_loss`` is
    the last fold the rank saw — its own baseline loss before the first
    epoch crossing.
    """

    epoch_float: float
    rounds: int
    evaluations: int
    global_loss: float


# An exchange callback receives (round_id, logical_nbytes) and returns a
# generator yielding the round's simulation commands.
ExchangeFn = Callable[[str, int], Generator]
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
    algo = ctx.stats(rank)  # substrate view over the run's trace

    if resume is None:
        # Baseline evaluation (loss at initialisation).
        yield Compute(ctx.eval_seconds(rank), "compute")
        global_loss = algo.local_loss(0)
        ctx.record(rank, 0.0, global_loss)
        epoch_float, rounds, evaluations = 0.0, 0, 1
    else:
        # Recovered incarnation: the baseline (and every record up to
        # the checkpoint) is already in the history; pick up mid-run.
        epoch_float, rounds = resume.epoch_float, resume.rounds
        evaluations, global_loss = resume.evaluations, resume.global_loss

    while epoch_float < cfg.max_epochs:
        if pre_round is not None:
            yield from pre_round(
                RoundState(epoch_float, rounds, evaluations, global_loss)
            )

        yield Compute(ctx.round_seconds(rank), "compute")
        yield from exchange(f"{rounds:08d}", ctx.wire_bytes)

        next_epoch = epoch_float + algo.epochs_per_round
        crossing = crosses_epoch(epoch_float, next_epoch)
        rounds += 1
        epoch_float = next_epoch

        if crossing:
            yield Compute(ctx.eval_seconds(rank), "compute")
            local_loss = algo.local_loss(evaluations)
            yield from exchange(f"{rounds:08d}-loss", LOSS_WIRE_BYTES)
            global_loss = algo.global_loss(evaluations)
            evaluations += 1
            ctx.record(rank, epoch_float, local_loss)
            if ctx.converged(global_loss):
                break
    return WorkerOutcome(rank, epoch_float, rounds, global_loss)
