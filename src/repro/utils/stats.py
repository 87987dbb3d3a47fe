"""The program's reductions, the scorecards' statistics helpers, and the
start-up curve's interpolation between measured anchors."""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Iterable

from repro.errors import ConfigurationError, SimulationError


def fold(values: Iterable[float]) -> float:
    """Add floats left to right from ``0``: every float total goes here.

    This is exactly Python 3.11's builtin ``sum()``. From 3.12 on,
    ``sum()`` compensates float rounding (Neumaier), so the same values
    can total to different bits on different interpreters, and one
    config hash would name two results. ``math.fsum`` would move every
    recorded total; this keeps them.
    """
    total = 0
    for value in values:
        total += value
    return total


def tally(counts: Iterable[int]) -> int:
    """Add integer counts (a ``bool`` counts one): exact in any order."""
    return reduce(add, counts, 0)


def percentile(values: list[float], q: float) -> float:
    """Deterministic linear-interpolation percentile (q in [0, 100])."""
    if not values:
        raise SimulationError("percentile of an empty series")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (q / 100.0) * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def jain_fairness(values: list[float]) -> float:
    """Jain's fairness index: (Σx)² / (n·Σx²), in (0, 1]; 1 = equal."""
    if not values:
        raise SimulationError("fairness of an empty series")
    square_of_sum = fold(values) ** 2
    sum_of_squares = fold(v * v for v in values)
    if sum_of_squares == 0.0:
        return 1.0  # all-zero allocations are (vacuously) equal
    return square_of_sum / (len(values) * sum_of_squares)


def log_interp(anchors: list[tuple[int, float]], workers: int) -> float:
    """Seconds to start ``workers`` from sorted ``(workers, seconds)`` anchors.

    Log-linear in w between neighbouring anchors, the first anchor's
    value at or below it, and linear in w past the last one (invocation
    and dispatch grow in batches). Serves both t_F(w) and t_I(w).
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if workers <= anchors[0][0]:
        return anchors[0][1]
    for (w0, t0), (w1, t1) in zip(anchors, anchors[1:]):
        if w0 <= workers <= w1:
            frac = (math.log(workers) - math.log(w0)) / (math.log(w1) - math.log(w0))
            return t0 + frac * (t1 - t0)
    w_last, t_last = anchors[-1]
    return t_last * (workers / w_last)
