"""Contention modelling for shared services.

A :class:`ServiceQueue` represents a service that can perform at most
`slots` operations concurrently (e.g. Redis's single worker thread vs
Memcached's thread pool). Operations arriving while all slots are busy
queue up deterministically; the returned completion time includes the
queueing delay.

Slot state is a flat min-heap of bare floats — each entry is one
slot's next-free time, nothing else. The historical implementation
heaped ``(next_free_time, slot_index)`` tuples; the index is
observationally irrelevant (every booking replaces *a* minimum of the
multiset of free times with its completion — which physical slot
served the op never reaches any output), so dropping it removes a
tuple allocation and a lexicographic comparison from every heap sift,
and lets each booking run as one :func:`heapq.heapreplace` (a single
O(log slots) sift) instead of a pop + push (two). On the engine's
per-operation hot path — every storage op of every tenant books
through one of these, and the multi-tenant service path funnels *all*
tenants of a service class through a single shared queue — this is
~3x faster per booking than the tuple heap at any slot count (and
measured faster than a numpy argmin scan, whose per-call dispatch
overhead dominates at realistic slot counts).

Bookings are also counted (``ops_booked``) so the service runtime can
report per-class contention pressure without touching the hot path.
"""

from __future__ import annotations

from heapq import heapreplace

from repro.errors import ConfigurationError


class ServiceQueue:
    """Deterministic k-server queue over simulated time."""

    __slots__ = ("slots", "ops_booked", "free")

    def __init__(self, slots: int) -> None:
        if slots < 1:
            raise ConfigurationError(f"service needs >= 1 slot, got {slots}")
        self.slots = slots
        self.ops_booked = 0
        # Min-heap of next-free simulated times, one float per slot.
        # All-equal entries are a valid heap; no heapify needed. Public
        # because ObjectStore.book runs `schedule` inline on it.
        self.free: list[float] = [0.0] * slots

    def schedule(self, arrival: float, duration: float) -> tuple[float, float]:
        """Book `duration` seconds of service starting at/after `arrival`.

        Returns `(start, completion)` where `start >= arrival` is when a
        slot became available. Always books the earliest-free slot, so
        results depend only on arrival order — which the engine keeps
        deterministic.
        """
        free = self.free
        free_at = free[0]
        start = arrival if arrival > free_at else free_at
        completion = start + duration
        heapreplace(free, completion)
        self.ops_booked += 1
        return start, completion

    @property
    def busy_until(self) -> float:
        """Latest booked completion across all slots (diagnostics only).

        This is when the *most loaded* slot frees up, not when the next
        operation could start (that is the heap's minimum, found by
        :meth:`schedule`): an op arriving before ``busy_until`` may
        still start immediately on an idle slot. Bookings are never
        un-made, so the value is monotonically non-decreasing over a
        run. Queues are single-use per run — build a fresh
        :class:`ServiceQueue` instead of recycling one (a previous
        ``reset()`` helper was removed as unused: rewinding slot state
        mid-simulation would violate the engine's monotonic clock).
        """
        return max(self.free)
