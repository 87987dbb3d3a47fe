"""The recording substrate: an exact run, kept for its trace.

:class:`~repro.substrate.exact.ExactSubstrate` already computes a BSP
run's statistics as a trace (the lockstep pass) and replays it, so a
recording costs no more than an exact run: this class keeps ``.trace``
— the ``traces/<stat_hash>.json`` payload that
:class:`~repro.substrate.replay.ReplaySubstrate` re-emits — and refuses
timing-coupled configs, which have no trace to keep.
"""

from __future__ import annotations

from repro.errors import SubstrateError
from repro.substrate.exact import ExactSubstrate


class RecordingSubstrate(ExactSubstrate):
    """Exact substrate + its convergence trace; see the module docstring."""

    name = "record"

    def _build(self, ctx) -> None:
        if ctx.config.timing_coupled:
            raise SubstrateError(
                f"{ctx.config.protocol}/{ctx.config.platform} trajectories are "
                "timing-coupled (no barrier between updates): there is no "
                "systems-independent convergence to record — run exact"
            )
        super()._build(ctx)
