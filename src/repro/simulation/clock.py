"""Simulated clock.

The clock only moves forward; the engine owns the single instance for a
run and advances it as events complete. Nothing in the library reads
the host wall clock for results.
"""

from __future__ import annotations

from repro.errors import SimulationError


class SimClock:
    """Monotonic simulated time in seconds.

    `now` is a plain public attribute (read several times per event on
    the engine's hot path — a property descriptor would double the
    cost); treat it as read-only and advance via :meth:`advance_to`.
    The engine's run loop alone stores a popped queued instant into it
    directly: every queued instant is later than `now`, so that store is
    exactly what :meth:`advance_to` would do.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def advance_to(self, t: float) -> None:
        if t < self.now - 1e-12:
            raise SimulationError(
                f"clock cannot move backwards: now={self.now:.6f}, target={t:.6f}"
            )
        self.now = max(self.now, t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self.now:.6f})"
