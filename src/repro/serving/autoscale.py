"""Pluggable autoscaling policies for the replica pool.

A policy sees only the pool's state at the simulated instant it is
consulted (queued/in-flight/live counts) and returns the replica count
the pool should reconcile toward. No wall clock, no randomness — a
policy's whole decision stream is a deterministic function of the
seeded simulation, which is what keeps serving reports byte-stable.

* ``fixed`` — hold exactly ``min_replicas``; the always-on baseline.
* ``concurrency`` — track demand: enough replicas that in-flight plus
  queued requests stay at ``target_concurrency`` per replica
  (Knative-style concurrency targeting).
* ``queue_depth`` — react to backlog with hysteresis: one replica up
  when the queue exceeds a threshold (rate-limited by an up-cooldown),
  one replica down when the pool has been drained for a down-cooldown.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.config import ServingConfig


class PoolState(NamedTuple):
    """What a policy may base its decision on.

    A tuple, built positionally once per pump: a frozen dataclass pays
    an ``object.__setattr__`` per field on every construction.
    """

    queued: int  # requests waiting for a replica
    in_flight: int  # requests currently being served
    live: int  # replicas starting + idle + busy
    idle: int  # warm replicas with no request


class Autoscaler:
    """Base policy: clamp to the configured [min, max] band."""

    name = "base"

    def __init__(self, min_replicas: int, max_replicas: int) -> None:
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas

    def _clamp(self, desired: int) -> int:
        return max(self.min_replicas, min(self.max_replicas, desired))

    def desired(self, state: PoolState, now: float) -> int:
        raise NotImplementedError


class FixedScaler(Autoscaler):
    """The always-on baseline: a constant fleet of ``min_replicas``."""

    name = "fixed"

    def desired(self, state: PoolState, now: float) -> int:
        return self.min_replicas


class ConcurrencyScaler(Autoscaler):
    """Size the pool so demand per replica meets the concurrency target."""

    name = "concurrency"

    def __init__(
        self, min_replicas: int, max_replicas: int, target_concurrency: float
    ) -> None:
        super().__init__(min_replicas, max_replicas)
        if target_concurrency <= 0:
            raise ConfigurationError("target_concurrency must be > 0")
        self.target_concurrency = target_concurrency

    def desired(self, state: PoolState, now: float) -> int:
        demand = state.in_flight + state.queued
        return self._clamp(math.ceil(demand / self.target_concurrency))


class QueueDepthScaler(Autoscaler):
    """Backlog-triggered stepping with scale-up/scale-down hysteresis."""

    name = "queue_depth"

    def __init__(
        self,
        min_replicas: int,
        max_replicas: int,
        queue_threshold: int,
        up_cooldown_s: float,
        down_cooldown_s: float,
    ) -> None:
        super().__init__(min_replicas, max_replicas)
        if queue_threshold < 1:
            raise ConfigurationError("queue_threshold must be >= 1")
        self.queue_threshold = queue_threshold
        self.up_cooldown_s = up_cooldown_s
        self.down_cooldown_s = down_cooldown_s
        self._target = min_replicas
        self._last_up = -math.inf
        self._last_down = -math.inf

    def desired(self, state: PoolState, now: float) -> int:
        if (
            state.queued >= self.queue_threshold
            and self._target < self.max_replicas
            and now - self._last_up >= self.up_cooldown_s
        ):
            self._target += 1
            self._last_up = now
        elif (
            state.queued == 0
            and state.in_flight < self._target
            and self._target > self.min_replicas
            and now - self._last_down >= self.down_cooldown_s
            and now - self._last_up >= self.down_cooldown_s
        ):
            self._target -= 1
            self._last_down = now
        return self._clamp(self._target)


def make_autoscaler(config: "ServingConfig") -> Autoscaler:
    """Build the config's policy instance (fresh state per run)."""
    if config.autoscaler == "fixed":
        return FixedScaler(config.min_replicas, config.max_replicas)
    if config.autoscaler == "concurrency":
        return ConcurrencyScaler(
            config.min_replicas, config.max_replicas, config.target_concurrency
        )
    if config.autoscaler == "queue_depth":
        return QueueDepthScaler(
            config.min_replicas,
            config.max_replicas,
            config.queue_threshold,
            config.scale_up_cooldown_s,
            config.scale_down_cooldown_s,
        )
    raise ConfigurationError(
        f"unknown autoscaler {config.autoscaler!r}"
    )
