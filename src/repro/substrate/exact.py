"""The exact substrates: real numpy training.

:func:`build_ranks` is what used to live inline in
``JobContext.__init__``: synthesize the dataset split, shard it across
workers, and instantiate one
:class:`~repro.optim.base.DistributedAlgorithm` per rank (plus the
k-means global-initialisation broadcast). Both substrates here start
from it.

:class:`PerRankSubstrate` drives those algorithms inside the engine:
its per-rank views are :class:`~repro.substrate.base.TimedView`
wrappers called one at a time, so the run also learns how many host
seconds the statistical work cost. Timing-coupled configs (ASP, hybrid
PS) need it, and it is the independent oracle the lockstep pass is
tested against.

:class:`ExactSubstrate` — the default for every other config — is a
:class:`~repro.substrate.replay.ReplaySubstrate` that makes its own
trace. A BSP config's statistics do not depend on timing, so it runs
them all before the engine starts, in the lockstep pass
(:mod:`repro.substrate.lockstep`), and the run replays that trace: the
engine simulates only timing.
"""

from __future__ import annotations

import copy
import time

from repro.data import synth
from repro.data.loader import make_shards
from repro.errors import SubstrateError
from repro.optim.base import make_algorithm
from repro.substrate.base import Substrate, TimedView
from repro.substrate.lockstep import run_lockstep
from repro.substrate.replay import ReplaySubstrate
from repro.substrate.traces import make_trace


def build_ranks(ctx) -> tuple[list, list]:
    """``(shards, algorithms)`` of `ctx`'s run: one of each per rank."""
    config = ctx.config
    split = synth.generate(config.dataset, scale=ctx.scale, seed=config.seed)
    shards = make_shards(
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
    algorithms = [
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
        for shard in shards
    ]
    return shards, algorithms


def accuracy(algo, shard) -> float | None:
    """Validation accuracy of `algo`'s model on `shard`, when defined."""
    model = getattr(algo, "model", None)
    if model is None or not hasattr(model, "accuracy"):
        return None
    try:
        return float(model.accuracy(algo.params, shard.X_val, shard.y_val))
    except (TypeError, ValueError):  # pragma: no cover - defensive
        return None


class PerRankSubstrate(Substrate):
    """Every statistic computed with real numpy, rank by rank in the engine."""

    def _build(self, ctx) -> None:
        t0 = time.perf_counter()
        self.shards, self.algorithms = build_ranks(ctx)
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
        t0 = time.perf_counter()
        try:
            return accuracy(self.algorithms[0], self.shards[0])
        finally:
            self.compute_seconds += time.perf_counter() - t0


class ExactSubstrate(ReplaySubstrate):
    """The replay of the run's own lockstep trace; see the module docstring.

    ``trace`` is ``None`` until the substrate is attached, then the
    schema-1 trace the run replays — the ``traces/<stat_hash>.json``
    payload a sweep keeps.
    """

    def __init__(self) -> None:
        # Not ReplaySubstrate.__init__: the trace is made in _build, not given.
        Substrate.__init__(self)
        self.trace: dict | None = None

    def _build(self, ctx) -> None:
        config = ctx.config
        if config.timing_coupled:
            raise SubstrateError(
                f"{config.protocol}/{config.platform} trajectories are "
                "timing-coupled (no barrier between updates): there is no "
                "systems-independent convergence to compute up front — run "
                "PerRankSubstrate"
            )
        t0 = time.perf_counter()
        shards, algorithms = build_ranks(ctx)
        ranks = run_lockstep(config, algorithms, shards)
        final_accuracy = accuracy(algorithms[0], shards[0])
        self.compute_seconds += time.perf_counter() - t0
        self.trace = make_trace(
            config, algorithms[0].reduce, ranks, final_accuracy, self.compute_seconds
        )
        super()._build(ctx)
