"""Retry policy for transient storage errors: capped exponential backoff.

The policy is timing metadata, not behaviour: the store's
``book`` asks the :class:`~repro.faults.plan.FaultPlan` how many
consecutive attempts fail, then uses :meth:`RetryPolicy.backoff_s` to
lay the failed attempts and their backoff gaps onto simulated time and
bills every attempt. Exhausting the budget raises
:class:`~repro.errors.TransientStorageError` — a worker that cannot
reach storage is dead, which on FaaS is exactly a crash.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Growth factor of the exponential backoff (attempt i waits
#: base * FACTOR**i, capped), matching the AWS SDK default.
BACKOFF_FACTOR = 2.0

#: Upper bound on a single backoff gap; keeps pathological error rates
#: from stretching one operation across minutes of simulated time.
MAX_BACKOFF_S = 5.0


@dataclass(frozen=True)
class RetryPolicy:
    """How a client retries a transiently failing storage operation."""

    limit: int = 5  # retries after the first attempt
    base_s: float = 0.1  # backoff before the first retry

    def __post_init__(self) -> None:
        if self.limit < 0:
            raise ConfigurationError(f"retry limit must be >= 0, got {self.limit}")
        if self.base_s < 0:
            raise ConfigurationError(f"retry base must be >= 0, got {self.base_s}")

    def backoff_s(self, attempt: int) -> float:
        """Backoff after failed attempt `attempt` (0-based)."""
        return min(self.base_s * (BACKOFF_FACTOR**attempt), MAX_BACKOFF_S)
