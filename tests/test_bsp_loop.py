"""Unit tests for the shared BSP loop using a scripted exchange."""

from __future__ import annotations

import pytest

from repro.core.bsp_loop import bsp_rounds
from repro.core.config import TrainingConfig
from repro.core.context import JobContext, WorkerOutcome
from repro.simulation.commands import Sleep


def _context(**overrides) -> JobContext:
    base = dict(
        model="lr",
        dataset="higgs",
        algorithm="ma_sgd",
        system="lambdaml",
        # Four workers: an 8 GB Higgs partition must stay under the
        # 3 GB function memory envelope (8/4 = 2 GB each).
        workers=4,
        channel="s3",
        batch_size=10_000,
        lr=0.05,
        loss_threshold=0.66,
        max_epochs=6,
        seed=21,
    )
    base.update(overrides)
    ctx = JobContext(TrainingConfig(**base))
    ctx.setup_faas()
    return ctx


def _barrier(workers: int):
    """An in-memory exchange: a rendezvous of `workers` ranks, no storage."""
    arrived: dict[str, int] = {}

    def exchange(round_id, nbytes):
        arrived[round_id] = arrived.get(round_id, 0) + 1
        yield Sleep(0.0)
        while arrived[round_id] < workers:
            yield Sleep(0.01)

    return exchange


def _run_lockstep(ctx) -> list[WorkerOutcome]:
    """Drive bsp_rounds for all workers with an in-memory exchange."""
    exchange = _barrier(ctx.config.workers)
    procs = [
        ctx.engine.spawn(bsp_rounds(ctx, rank, exchange), name=f"w{rank}")
        for rank in range(ctx.config.workers)
    ]
    ctx.engine.run()
    return [p.result for p in procs]


class TestBSPLoop:
    def test_all_workers_agree_on_outcome(self):
        ctx = _context()
        outcomes = _run_lockstep(ctx)
        assert len({o.rounds for o in outcomes}) == 1
        assert len({o.epochs for o in outcomes}) == 1
        losses = [o.final_loss for o in outcomes]
        assert max(losses) - min(losses) < 1e-12  # identical merged loss

    def test_stops_on_threshold(self):
        ctx = _context()
        outcomes = _run_lockstep(ctx)
        assert outcomes[0].final_loss <= 0.66
        assert outcomes[0].epochs < 6

    def test_respects_max_epochs_without_threshold(self):
        ctx = _context(loss_threshold=None, max_epochs=3)
        outcomes = _run_lockstep(ctx)
        assert outcomes[0].epochs == pytest.approx(3.0)

    def test_history_recorded_at_epoch_boundaries(self):
        ctx = _context(loss_threshold=None, max_epochs=3)
        _run_lockstep(ctx)
        epochs_seen = sorted({p.epoch for p in ctx.history})
        assert epochs_seen == [0.0, 1.0, 2.0, 3.0]

    def test_admm_crosses_multiple_epochs_per_round(self):
        ctx = _context(algorithm="admm", loss_threshold=None, max_epochs=20)
        outcomes = _run_lockstep(ctx)
        assert outcomes[0].rounds == 2  # 10 epochs per round
        assert outcomes[0].epochs == pytest.approx(20.0)

    def test_pre_round_hook_invoked(self):
        ctx = _context(loss_threshold=None, max_epochs=2)
        calls = []

        def pre_round(epoch_float, rounds, evaluations, global_loss):
            calls.append((epoch_float, rounds))
            return None  # no I/O at this boundary: the round starts at once

        exchange = _barrier(ctx.config.workers)
        procs = [
            ctx.engine.spawn(
                bsp_rounds(ctx, rank, exchange, pre_round=pre_round), name=f"w{rank}"
            )
            for rank in range(ctx.config.workers)
        ]
        ctx.engine.run()
        assert len(calls) == 2 * ctx.config.workers  # one per round per worker
        assert sorted(set(calls)) == [(0.0, 0), (1.0, 1)]
        assert all(p.result.rounds == 2 for p in procs)

    def test_pre_round_io_runs_before_the_round(self):
        """A hook's generator is the boundary's I/O: the round's compute
        starts only when it ends, and a plain ``None`` costs no time."""
        quiet = _context(loss_threshold=None, max_epochs=2)
        busy = _context(loss_threshold=None, max_epochs=2)

        def boundary_io():
            yield Sleep(5.0, "checkpoint")

        def pre_round(epoch_float, rounds, evaluations, global_loss):
            return boundary_io() if rounds == 1 else None

        finished = []
        for ctx, hook in ((quiet, None), (busy, pre_round)):
            exchange = _barrier(ctx.config.workers)
            for rank in range(ctx.config.workers):
                ctx.engine.spawn(
                    bsp_rounds(ctx, rank, exchange, pre_round=hook), name=f"w{rank}"
                )
            ctx.engine.run()
            finished.append(ctx.engine.now)
        assert finished[1] == pytest.approx(finished[0] + 5.0)
