"""The lockstep pass: a BSP run's statistics for all ranks, before the engine.

BSP statistics do not depend on timing: every rank computes its payload
from state fixed at the round's start, the merge is one rank-order fold
(``comm/aggregator.py``), and the stop test reads one merged loss. So
the whole statistical run is computed up front, with the W ranks
advanced together, and handed to the engine as a trace to replay. This
is the one place BSP floats are folded: the communication patterns and
the IaaS collective move byte counts only, so the trajectory is the same
on every pattern, channel and platform by construction.

:func:`run_lockstep` follows :func:`~repro.core.bsp_loop.bsp_rounds`'
statistical control flow — the baseline ``local_loss``, payloads merged
with ``reduce_vectors`` in rank order, ``apply``, the epoch-crossing
rule, the global loss of :func:`global_loss`, and the stop test through
``TrainingConfig.converged`` — and returns the per-rank trace records.

What is identical across ranks is computed once. Each round goes
through two hooks of the class it is handed: ``round_payloads`` steps
ADMM, MA-SGD and GA-SGD over dense linear models with one stacked numpy
call per minibatch step (rank by rank otherwise: sparse data, neural
networks, k-means EM), and ``apply_merged`` updates every rank — GA-SGD
builds its step ``lr · merged`` once and subtracts it per rank. The
payloads are folded as they come: the float64 accumulator widens a
float32 payload exactly, so no copy is made first. (The one initial
model every rank starts from is drawn once, in ``build_ranks``.)
``DistributedAlgorithm``'s hooks always go rank by rank through
``round_payload`` and ``apply``, which makes the base class the
reference the shortcuts are tested against.
"""

from __future__ import annotations

import math

import numpy as np

from repro.comm.aggregator import reduce_vectors
from repro.substrate.traces import rank_record


def global_loss(local_losses, reduce: str) -> float:
    """The loss every rank sees after one evaluation: the rank-order fold
    of ``[loss, 1.0]`` rows (mean gives ``[mean, 1]``, sum ``[sum, w]``),
    then ``m[0] / m[1]``. The lockstep pass and the replay of its trace
    both read it from here."""
    merged = reduce_vectors([np.array([loss, 1.0]) for loss in local_losses], reduce)
    return merged[0] / merged[1] if merged[1] > 0 else math.inf


def run_lockstep(config, algorithms: list, shards, kind) -> list[dict]:
    """Train `algorithms` (one per rank, on `shards`) to the BSP stop,
    each round's payloads from ``kind.round_payloads(algorithms, shards)``
    and its update through ``kind.apply_merged(algorithms, merged)``;
    returns each rank's trace record. The algorithms end in their final
    state."""
    # Deferred: core.bsp_loop imports core.context, which imports this
    # package.
    from repro.core.bsp_loop import crosses_epoch

    reduce = algorithms[0].reduce
    epochs_per_round = algorithms[0].epochs_per_round
    losses = [[algo.local_loss()] for algo in algorithms]
    global_losses = [rank_losses[0] for rank_losses in losses]
    epoch_float, rounds = 0.0, 0
    while epoch_float < config.max_epochs:
        payloads = kind.round_payloads(algorithms, shards)
        merged = reduce_vectors(payloads, reduce)
        del payloads  # the update below can reuse the memory of a payload it replaces
        kind.apply_merged(algorithms, merged)

        next_epoch = epoch_float + epochs_per_round
        crossing = crosses_epoch(epoch_float, next_epoch)
        rounds += 1
        epoch_float = next_epoch

        if crossing:
            local = [algo.local_loss() for algo in algorithms]
            merged_loss = global_loss(local, reduce)
            for rank_losses, loss in zip(losses, local):
                rank_losses.append(loss)
            global_losses = [merged_loss] * len(algorithms)
            if config.converged(merged_loss):
                break
    return [
        rank_record(algo, rank_losses, rounds, epoch_float, final_loss)
        for algo, rank_losses, final_loss in zip(algorithms, losses, global_losses)
    ]
