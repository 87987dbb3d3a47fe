"""The replay substrate: re-emit a recorded convergence, zero numpy work.

Given a trace whose statistical fingerprint matches the config being
run, each rank's view answers the executor's statistical questions from
the recording: ``round_work``/``eval_work``/``epochs_per_round`` give
the simulation the same compute charges, ``local_loss`` plays back the
recorded evaluations in order, ``round_payload`` hands out a tiny
surrogate vector (the wire carries *logical* byte counts, so payload
contents never touch timing or billing), and ``apply`` is a no-op.

Because every statistical decision the BSP loop makes — payload sizes,
per-epoch losses, the loss-allreduce values, the stop round — replays
identically, the executors yield the identical command stream and the
engine reproduces the exact run's duration, cost, history and
breakdown bit for bit. No dataset is synthesized and no model is
instantiated: a replayed point costs milliseconds instead of the ~40 s
an LR/Higgs training takes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReplayDivergenceError, SubstrateError
from repro.substrate.base import Substrate
from repro.substrate.traces import validate_trace


class _ReplayView:
    """Per-rank statistical view answering from one trace rank record."""

    __slots__ = ("_reduce", "_record", "_payload", "_params", "_cursor", "_rank")

    def __init__(self, record: dict, reduce: str, workers: int, rank: int) -> None:
        self._reduce = reduce
        self._record = record
        self._rank = rank
        self._cursor = 0
        # ScatterReduce splits the physical payload into `workers`
        # chunks; a `workers`-long surrogate keeps every chunk non-empty
        # while staying O(w) instead of O(model size).
        self._payload = np.zeros(workers, dtype=np.float64)
        self._params = np.zeros(1, dtype=np.float64)

    @property
    def reduce(self) -> str:
        return self._reduce

    @reduce.setter
    def reduce(self, value) -> None:
        raise AttributeError("substrate views are read-only (tried to set 'reduce')")

    @property
    def epochs_per_round(self) -> float:
        return self._record["epochs_per_round"]

    def round_work(self) -> tuple[float, float]:
        instances, iterations = self._record["round_work"]
        return (instances, iterations)

    def eval_work(self) -> tuple[float, float]:
        instances, iterations = self._record["eval_work"]
        return (instances, iterations)

    def round_payload(self) -> np.ndarray:
        return self._payload

    def apply(self, merged) -> None:
        pass

    def local_loss(self) -> float:
        losses = self._record["losses"]
        if self._cursor >= len(losses):
            raise ReplayDivergenceError(
                f"rank {self._rank} asked for evaluation #{self._cursor + 1} but "
                f"the trace recorded only {len(losses)}: the replayed config does "
                "not share the recorded statistical trajectory"
            )
        loss = losses[self._cursor]
        self._cursor += 1
        return loss

    @property
    def params(self) -> np.ndarray:
        # Checkpoints copy this; contents are irrelevant (the simulated
        # wire carries logical byte counts).
        return self._params

    @params.setter
    def params(self, value) -> None:
        pass


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)  # NaN == NaN: a deterministic outcome


class ReplaySubstrate(Substrate):
    """Serve a recorded trace; see the module docstring."""

    def __init__(self, trace: dict) -> None:
        super().__init__()
        self.trace = validate_trace(trace)

    def _build(self, ctx) -> None:
        config = ctx.config
        if config.timing_coupled:
            raise SubstrateError(
                f"{config.protocol}/{config.platform} trajectories are "
                "timing-coupled: replaying one under different systems axes "
                "would fabricate a convergence that never happened — run exact"
            )
        expected = config.stat_hash()
        if self.trace["stat_hash"] != expected:
            raise SubstrateError(
                f"trace {self.trace['stat_hash']} does not match this config's "
                f"statistical fingerprint {expected}: refusing to replay a "
                "different convergence"
            )
        if len(self.trace["ranks"]) != config.workers:
            raise SubstrateError(
                f"trace holds {len(self.trace['ranks'])} ranks but the config "
                f"runs {config.workers} workers"
            )
        reduce = self.trace["reduce"]
        self._views = [
            _ReplayView(record, reduce, config.workers, rank)
            for rank, record in enumerate(self.trace["ranks"])
        ]

    def stats(self, rank: int):
        return self._views[rank]

    # -- fault recovery -------------------------------------------------
    def snapshot_rank(self, rank: int):
        """A replayed rank's whole mutable state is its loss cursor."""
        return self._views[rank]._cursor

    def restore_rank(self, rank: int, state) -> None:
        self._views[rank]._cursor = state

    def final_accuracy(self, ctx) -> float | None:
        return self.trace.get("final_accuracy")

    def finalize(self, ctx, result, outcomes) -> None:
        """Refuse a run that did not consume the trace exactly.

        Every rank's final incarnation must have read every recorded
        loss (crash rewinds included), and every outcome must end where
        its record says; otherwise the trace described some other run.
        """
        for view in self._views:
            recorded = len(view._record["losses"])
            if view._cursor != recorded:
                raise ReplayDivergenceError(
                    f"rank {view._rank} read {view._cursor} of the {recorded} "
                    "evaluations the trace recorded: the replayed config does not "
                    "share the recorded statistical trajectory"
                )
        for outcome in outcomes:
            record = self.trace["ranks"][outcome.rank]
            for key in ("rounds", "epochs", "final_loss"):
                if not _same(getattr(outcome, key), record[key]):
                    raise ReplayDivergenceError(
                        f"rank {outcome.rank} ended with {key} "
                        f"{getattr(outcome, key)!r} but the trace recorded "
                        f"{record[key]!r}"
                    )
