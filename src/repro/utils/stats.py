"""Small statistics helpers used by the service and serving scorecards."""

from __future__ import annotations

from repro.errors import SimulationError


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
    square_of_sum = sum(values) ** 2
    sum_of_squares = sum(v * v for v in values)
    if sum_of_squares == 0.0:
        return 1.0  # all-zero allocations are (vacuously) equal
    return square_of_sum / (len(values) * sum_of_squares)
