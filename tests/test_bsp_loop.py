"""Unit tests for the shared BSP loop using a scripted exchange."""

from __future__ import annotations

import numpy as np
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


def _run_lockstep(ctx) -> list[WorkerOutcome]:
    """Drive bsp_rounds for all workers with an in-memory exchange."""
    pending: dict[str, list] = {}
    results: dict[str, np.ndarray] = {}
    workers = ctx.config.workers

    def make_exchange(rank):
        def exchange(round_id, wire, nbytes):
            # Rendezvous without any storage: collect every worker's
            # contribution, reduce once, hand the same vector back.
            bucket = pending.setdefault(round_id, [])
            bucket.append(np.asarray(wire, dtype=np.float64))
            yield Sleep(0.0)
            while round_id not in results:
                if len(pending[round_id]) == workers:
                    reduce = ctx.stats(rank).reduce
                    stacked = np.stack(pending[round_id])
                    results[round_id] = (
                        stacked.mean(axis=0) if reduce == "mean" else stacked.sum(axis=0)
                    )
                else:
                    yield Sleep(0.01)
            return results[round_id]

        return exchange

    procs = [
        ctx.engine.spawn(
            bsp_rounds(ctx, rank, make_exchange(rank)), name=f"w{rank}"
        )
        for rank in range(workers)
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

        def pre_round(state):
            calls.append((state.epoch_float, state.rounds))
            yield Sleep(0.0)

        pending = {}
        results = {}

        def exchange(round_id, wire, nbytes):
            bucket = pending.setdefault(round_id, [])
            bucket.append(np.asarray(wire, dtype=np.float64))
            yield Sleep(0.0)
            while round_id not in results:
                if len(pending[round_id]) == ctx.config.workers:
                    results[round_id] = np.stack(pending[round_id]).mean(axis=0)
                else:
                    yield Sleep(0.01)
            return results[round_id]

        procs = [
            ctx.engine.spawn(
                bsp_rounds(ctx, rank, exchange, pre_round=pre_round), name=f"w{rank}"
            )
            for rank in range(ctx.config.workers)
        ]
        ctx.engine.run()
        assert len(calls) == 2 * ctx.config.workers  # one per round per worker
