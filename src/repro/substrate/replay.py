"""The replay substrate: re-emit a recorded convergence, zero numpy work.

Given a trace whose statistical fingerprint matches the config being
run, each rank's view answers the executor's statistical questions from
the recording: ``round_work``/``eval_work``/``epochs_per_round`` give
the simulation the same compute charges, ``local_loss(i)`` is the
rank's recorded evaluation ``i``, and ``global_loss(i)`` is the
rank-order fold of every rank's loss at that evaluation — folded once
per trace, at attach time, by the lockstep pass's own helper
(:func:`~repro.substrate.lockstep.global_loss`). A view is read-only:
which evaluation a rank reads next is the BSP loop's position
(:class:`~repro.core.bsp_loop.RoundState`), so a crashed rank's
successor resumes by position alone.

Because every statistical decision the BSP loop makes — per-epoch
losses, the global loss, the stop round — replays identically, the
executors yield the identical command stream and the engine reproduces
the exact run's duration, cost, history and breakdown bit for bit. No
dataset is synthesized and no model is instantiated: a replayed point
costs milliseconds instead of the ~40 s an LR/Higgs training takes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.errors import ReplayDivergenceError, SubstrateError
from repro.substrate.base import Substrate
from repro.substrate.lockstep import global_loss
from repro.substrate.traces import validate_trace


@dataclass(frozen=True, eq=False)
class _ReplayView:
    """Per-rank statistical view answering from one trace rank record."""

    _record: dict
    _global_losses: list
    _rank: int

    @property
    def epochs_per_round(self) -> float:
        return self._record["epochs_per_round"]

    def round_work(self) -> tuple[float, float]:
        instances, iterations = self._record["round_work"]
        return (instances, iterations)

    def eval_work(self) -> tuple[float, float]:
        instances, iterations = self._record["eval_work"]
        return (instances, iterations)

    def local_loss(self, i: int) -> float:
        """This rank's loss at evaluation `i` (0 is the baseline)."""
        losses = self._record["losses"]
        if i >= len(losses):
            raise ReplayDivergenceError(
                f"rank {self._rank} asked for evaluation #{i + 1} but "
                f"the trace recorded only {len(losses)}: the replayed config does "
                "not share the recorded statistical trajectory"
            )
        return losses[i]

    def global_loss(self, i: int) -> float:
        """The rank-order fold of every rank's loss at evaluation `i`."""
        return self._global_losses[i]


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
        ranks = self.trace["ranks"]
        global_losses = [
            global_loss(evaluation, self.trace["reduce"])
            for evaluation in zip(*(record["losses"] for record in ranks))
        ]
        self._views = [
            _ReplayView(record, global_losses, rank) for rank, record in enumerate(ranks)
        ]

    def stats(self, rank: int):
        return self._views[rank]

    def final_accuracy(self, ctx) -> float | None:
        return self.trace.get("final_accuracy")

    def finalize(self, ctx, result, outcomes) -> None:
        """Refuse a run that did not consume the trace exactly.

        Every evaluation a rank reads leaves one history record, and a
        crash rolls back the records past its checkpoint, so each rank's
        records count the evaluations its final incarnation has read:
        all of them, and every outcome must end where its record says;
        otherwise the trace described some other run.
        """
        read = Counter(point.worker for point in result.history)
        for rank, record in enumerate(self.trace["ranks"]):
            recorded = len(record["losses"])
            if read[rank] != recorded:
                raise ReplayDivergenceError(
                    f"rank {rank} read {read[rank]} of the {recorded} "
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
