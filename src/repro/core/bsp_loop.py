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

A rank's round structure is constant: every BSP view answers
``round_work()``, ``eval_work()`` and ``epochs_per_round`` with one
value per rank — a replay view reads the one its trace record holds, and
every :class:`~repro.optim.base.DistributedAlgorithm` derives them from
its shard and config, never from its training state
(``tests/test_lockstep.py`` checks both after rounds have run). So the
loop reads the rank's round and evaluation seconds, its wire bytes and
its epochs per round once per worker incarnation, before its first
round, and each round then costs only the commands it yields.

Fault recovery enters through two seams. The ``pre_round`` hook is
called at every round boundary with the loop's position — epoch,
rounds, evaluations read and last global loss, the fields of
:class:`RoundState` — atomically with the loss record that may precede
the boundary, since no command is yielded in between. It is a plain
call: it returns ``None`` when the boundary has no I/O to do, or a
generator that the loop runs to completion before the round starts;
it may raise. The FaaS executor returns one when its recovery
checkpoint or a Figure-5 re-invocation is due, and builds the
:class:`RoundState` it persists only then. A respawned incarnation then
passes that state back via ``resume``: the loop skips the baseline
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
# Optional hook called before each round with the RoundState fields
# (epoch_float, rounds, evaluations, global_loss); it returns None or
# a generator of the boundary's I/O (FaaS: recovery checkpoints and the
# Figure-5 lifetime check).
PreRoundHook = Callable[[float, int, int, float], "Generator | None"]


def bsp_rounds(
    ctx: JobContext,
    rank: int,
    exchange: ExchangeFn,
    pre_round: PreRoundHook | None = None,
    resume: RoundState | None = None,
):
    """Generator running BSP rounds to convergence; returns WorkerOutcome."""
    algo = ctx.stats(rank)  # substrate view over the run's trace
    # Constant per rank (module docstring): read once per incarnation.
    max_epochs = ctx.config.max_epochs
    round_s = ctx.round_seconds(rank)
    eval_s = ctx.eval_seconds(rank)
    wire_bytes = ctx.wire_bytes
    epochs_per_round = algo.epochs_per_round

    if resume is None:
        # Baseline evaluation (loss at initialisation).
        yield Compute(eval_s, "compute")
        global_loss = algo.local_loss(0)
        ctx.record(rank, 0.0, global_loss)
        epoch_float, rounds, evaluations = 0.0, 0, 1
    else:
        # Recovered incarnation: the baseline (and every record up to
        # the checkpoint) is already in the history; pick up mid-run.
        epoch_float, rounds = resume.epoch_float, resume.rounds
        evaluations, global_loss = resume.evaluations, resume.global_loss

    while epoch_float < max_epochs:
        if pre_round is not None:
            boundary_io = pre_round(epoch_float, rounds, evaluations, global_loss)
            if boundary_io is not None:
                yield from boundary_io

        yield Compute(round_s, "compute")
        yield from exchange(f"{rounds:08d}", wire_bytes)

        next_epoch = epoch_float + epochs_per_round
        crossing = crosses_epoch(epoch_float, next_epoch)
        rounds += 1
        epoch_float = next_epoch

        if crossing:
            yield Compute(eval_s, "compute")
            local_loss = algo.local_loss(evaluations)
            yield from exchange(f"{rounds:08d}-loss", LOSS_WIRE_BYTES)
            global_loss = algo.global_loss(evaluations)
            evaluations += 1
            ctx.record(rank, epoch_float, local_loss)
            if ctx.converged(global_loss):
                break
    return WorkerOutcome(rank, epoch_float, rounds, global_loss)
