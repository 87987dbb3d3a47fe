"""Per-process time accounting.

Each process accumulates simulated seconds per category. The
categories mirror the paper's Figure 10 breakdown (startup, data
loading, computation, communication) plus the waiting/checkpoint time
the paper folds into communication.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial

from repro.utils.stats import fold

_INF = math.inf

KNOWN_CATEGORIES = (
    "startup",
    "load",
    "compute",
    "comm",
    "wait",
    "merge",
    "checkpoint",
    "idle",
)


@dataclass
class TimeBreakdown:
    """Simulated seconds spent per activity category."""

    seconds: dict[str, float] = field(default_factory=partial(defaultdict, float))

    def add(self, category: str, duration: float) -> None:
        if not 0.0 <= duration < _INF:  # also rejects NaN
            raise ValueError(f"invalid duration {duration!r} for {category}")
        self.seconds[category] += duration

    def get(self, category: str) -> float:
        return self.seconds.get(category, 0.0)

    @property
    def total(self) -> float:
        return fold(self.seconds.values())

    @property
    def communication(self) -> float:
        """Communication as the paper reports it: transfer + sync wait."""
        return self.get("comm") + self.get("wait") + self.get("merge")

    @staticmethod
    def max_per_category(parts: list["TimeBreakdown"]) -> "TimeBreakdown":
        """Category-wise maximum across workers.

        Figure 10 reports the critical-path time of the slowest worker
        per phase; with homogeneous workers the max is that worker.
        """
        out = TimeBreakdown()
        for category in KNOWN_CATEGORIES:
            value = max((p.get(category) for p in parts), default=0.0)
            if value > 0:
                out.add(category, value)
        return out

    def as_dict(self) -> dict[str, float]:
        return dict(self.seconds)
