"""The exact substrates: real numpy training.

:class:`PerRankSubstrate` owns what used to live inline in
``JobContext.__init__``: synthesize the dataset split, shard it across
workers, and instantiate one
:class:`~repro.optim.base.DistributedAlgorithm` per rank (plus the
k-means global-initialisation broadcast). Its per-rank views are
:class:`~repro.substrate.base.TimedView` wrappers the engine drives one
call at a time, so the run also learns how many host seconds the
statistical work cost.

:class:`ExactSubstrate` — the default — builds the same and picks the
schedule. A BSP config's statistics do not depend on timing, so it runs
them all before the engine starts, in the lockstep pass
(:mod:`repro.substrate.lockstep`), and the run replays that trace: the
engine simulates only timing. Timing-coupled configs (ASP, hybrid PS)
keep the per-rank views. The per-rank class is also the independent
oracle the lockstep pass is tested against.
"""

from __future__ import annotations

import copy
import time

from repro.data.loader import make_shards
from repro.data.synth import generate
from repro.optim.base import make_algorithm
from repro.substrate.base import Substrate, TimedView
from repro.substrate.lockstep import run_lockstep
from repro.substrate.replay import ReplaySubstrate
from repro.substrate.traces import make_trace


class PerRankSubstrate(Substrate):
    """Every statistic computed with real numpy, rank by rank in the engine."""

    name = "exact"

    def _build(self, ctx) -> None:
        config = ctx.config
        t0 = time.perf_counter()
        split = generate(config.dataset, scale=ctx.scale, seed=config.seed)
        self.shards = make_shards(
            split,
            config.workers,
            global_batch=config.physical_batch(ctx.scale),
            partition_mode=config.partition_mode,
            seed=config.seed,
            min_local_batch=config.min_local_batch,
        )
        # k-means needs one globally sampled initialisation broadcast
        # to every worker (the starter's job in LambdaML).
        kmeans_init = None
        if ctx.info.kind == "kmeans":
            probe_model = ctx.info.factory()
            kmeans_init = probe_model.init_centroids(split.X_train, rng=config.seed)
        self.algorithms = [
            make_algorithm(
                config.algorithm,
                ctx.info.factory(),
                shard,
                lr=config.lr,
                seed=config.seed,  # same init on every worker
                admm_rho=config.admm_rho,
                admm_scans=config.admm_scans,
                ma_sync_epochs=config.ma_sync_epochs,
                kmeans_init=kmeans_init,
            )
            for shard in self.shards
        ]
        self.compute_seconds += time.perf_counter() - t0
        self._views = [TimedView(algo, self) for algo in self.algorithms]

    def stats(self, rank: int):
        return self._views[rank]

    # -- fault recovery -------------------------------------------------
    def _copy_algorithm(self, algo):
        """Deep copy of an algorithm's mutable state, sharing the data.

        The shard's feature/label arrays are immutable for the whole
        run, so the memo pins them (copying a full Higgs shard per
        round-boundary snapshot would dominate fault runs); everything
        else — parameters, ADMM duals, k-means centroids, and crucially
        the shard's minibatch RNG — is copied, which is exactly what a
        resumed incarnation needs to replay the identical statistical
        stream.
        """
        shard = algo.shard
        memo = {
            id(arr): arr
            for arr in (shard.X, shard.y, shard.X_val, shard.y_val)
        }
        return copy.deepcopy(algo, memo)

    def snapshot_rank(self, rank: int):
        t0 = time.perf_counter()
        state = self._copy_algorithm(self.algorithms[rank])
        self.compute_seconds += time.perf_counter() - t0
        return state

    def restore_rank(self, rank: int, state) -> None:
        t0 = time.perf_counter()
        algo = self._copy_algorithm(state)  # the snapshot stays reusable
        self.algorithms[rank] = algo
        self._views[rank] = TimedView(algo, self)
        self.compute_seconds += time.perf_counter() - t0

    def final_accuracy(self, ctx) -> float | None:
        """Validation accuracy of worker 0's final model, when defined."""
        algo = self.algorithms[0]
        model = getattr(algo, "model", None)
        if model is None or not hasattr(model, "accuracy"):
            return None
        shard = self.shards[0]
        t0 = time.perf_counter()
        try:
            return float(model.accuracy(algo.params, shard.X_val, shard.y_val))
        except (TypeError, ValueError):  # pragma: no cover - defensive
            return None
        finally:
            self.compute_seconds += time.perf_counter() - t0


class ExactSubstrate(PerRankSubstrate):
    """The default substrate; see the module docstring.

    For a BSP config ``trace`` holds the lockstep pass's schema-1 trace
    and a :class:`~repro.substrate.replay.ReplaySubstrate` over it
    answers the run: a crashed rank restores a replay cursor, and
    :meth:`finalize` refuses a run that did not consume the trace
    exactly. For a timing-coupled config ``trace`` stays ``None``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.trace: dict | None = None
        self._replay: ReplaySubstrate | None = None

    def _build(self, ctx) -> None:
        super()._build(ctx)
        if ctx.config.timing_coupled:
            return
        t0 = time.perf_counter()
        ranks = run_lockstep(ctx.config, self.algorithms, self.shards)
        self.compute_seconds += time.perf_counter() - t0
        self.trace = make_trace(
            ctx.config,
            self.algorithms[0].reduce,
            ranks,
            super().final_accuracy(ctx),
            self.compute_seconds,
        )
        self._replay = ReplaySubstrate(self.trace)
        self._replay.attach(ctx)
        self._views = self._replay._views

    # -- replay of the lockstep trace (BSP) -----------------------------
    def snapshot_rank(self, rank: int):
        if self._replay is None:
            return super().snapshot_rank(rank)
        return self._replay.snapshot_rank(rank)

    def restore_rank(self, rank: int, state) -> None:
        if self._replay is None:
            super().restore_rank(rank, state)
        else:
            self._replay.restore_rank(rank, state)

    def final_accuracy(self, ctx) -> float | None:
        if self._replay is None:
            return super().final_accuracy(ctx)
        return self._replay.final_accuracy(ctx)

    def finalize(self, ctx, result, outcomes) -> None:
        if self._replay is not None:
            self._replay.finalize(ctx, result, outcomes)
