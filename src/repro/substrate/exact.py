"""The exact substrates: real numpy training.

:func:`build_ranks` is what used to live inline in
``JobContext.__init__``: synthesize the dataset split, shard it across
workers, draw the initial model once, and instantiate one
:class:`~repro.optim.base.DistributedAlgorithm` per rank from it. Both
substrates here start from it.

:class:`ExactSubstrate` — the default for every BSP config — is a
:class:`~repro.substrate.replay.ReplaySubstrate` that makes its own
trace. A BSP config's statistics do not depend on timing, so it runs
them all before the engine starts, in the lockstep pass
(:mod:`repro.substrate.lockstep`), and the run replays that trace: the
engine simulates only timing.

:class:`PerRankSubstrate` drives those algorithms inside the engine for
the timing-coupled configs (ASP, hybrid PS), whose floats depend on the
event order: its per-rank views are
:class:`~repro.substrate.base.TimedView` wrappers called one at a time,
so the run also learns how many host seconds the statistical work cost.
"""

from __future__ import annotations

import time

from repro.data import synth
from repro.data.loader import make_shards
from repro.errors import SubstrateError
from repro.optim.base import initial_model, make_algorithm
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
    # Every worker starts from the same model: it is drawn once and
    # broadcast (the starter's job in LambdaML).
    init = initial_model(config.algorithm, ctx.info.factory(), config.seed, split.X_train)
    algorithms = [
        make_algorithm(
            config.algorithm,
            ctx.info.factory(),
            shard,
            lr=config.lr,
            init=init,
            admm_rho=config.admm_rho,
            admm_scans=config.admm_scans,
            ma_sync_epochs=config.ma_sync_epochs,
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
        config = ctx.config
        if not config.timing_coupled:
            raise SubstrateError(
                f"{config.protocol}/{config.platform} statistics do not depend on "
                "timing: they are computed in the lockstep pass and replayed — "
                "run ExactSubstrate"
            )
        t0 = time.perf_counter()
        self.shards, self.algorithms = build_ranks(ctx)
        self.compute_seconds += time.perf_counter() - t0
        self._views = [TimedView(algo, self) for algo in self.algorithms]

    def stats(self, rank: int):
        return self._views[rank]

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
        ranks = self._lockstep(config, algorithms, shards)
        final_accuracy = accuracy(algorithms[0], shards[0])
        self.compute_seconds += time.perf_counter() - t0
        self.trace = make_trace(
            config, algorithms[0].reduce, ranks, final_accuracy, self.compute_seconds
        )
        super()._build(ctx)

    @staticmethod
    def _lockstep(config, algorithms, shards) -> list[dict]:
        """The lockstep pass, each algorithm stepping and updating its
        ranks its own way (stacked where its kernels allow, rank-invariant
        work once)."""
        return run_lockstep(config, algorithms, shards, type(algorithms[0]))
