"""Base object store: shared data plane + per-service timing/billing.

The data plane is a plain dict (the engine applies mutations at the
simulated completion time of each operation, so visibility is
chronologically consistent) plus an incremental index: an
:class:`~repro.storage.ordered_index.OrderedKeyIndex` (a chunked
sorted list — bounded-memmove mutations), and the store's *wait index*:
who is blocked on this store, and on what. The index makes the
hot-path queries cheap at mega-scale:

* ``_do_list(prefix)`` — O(log n + m) for n stored keys, m matches
  (locate the prefix range, concatenate whole chunks);
* ``_count_prefix(prefix)`` — O(1) for a watched prefix (live
  counter), O(log n + n/chunk) otherwise (two endpoint ranks);
* each mutation — O(log n) bisects plus a memmove bounded by the
  chunk size (never O(n); this is what lifted the old flat sorted
  list's ~10^5-key ceiling) plus one dict probe per distinct
  watched prefix *length* (usually one) to update the live counters.

The wait index is the only place that knows who waits on a store:
one record per watched prefix, ``prefix -> [live count, waiters,
smallest target]``, for :class:`~repro.simulation.commands.WaitKeyCount`
— a prefix is watched exactly while it has a waiter, by construction.
Every storage wait is such a count: waiting for one file is a count of
one on its full name (no key of a round is a proper prefix of another).

Every data-plane mutation is one store call. :meth:`ObjectStore._do_put`
stores, indexes and wake-checks a key in one frame and hands back the
waiters a *new* key satisfies, so a completed put wakes exactly the
affected waiters: one probe per watched prefix length, and an O(1)
comparison against the record's smallest target deciding that nobody
on the prefix is satisfied yet (only a put that does satisfy someone
looks at the prefix's waiters); never a scan over unrelated waiters or
stored keys. :meth:`ObjectStore.discard_prefix` retires every key under
a prefix — a reducer's consumed inbox, a leader's part files, a round
below the retention floor — in one range delete of the key index,
moving the watched counters with one probe per watched length up to
the prefix's own. Wake order is registration order *across* prefixes
(a dedicated sequence counter), which is what the historical linear
scan produced, so traces are reproducible across engine versions. Only
a new key can satisfy a waiter: an overwrite changes no count, and
:meth:`ObjectStore.seed_object` (staging, before the run) is counted
but wakes nobody.

The timing plane is a :class:`StorageProfile` — latency, bandwidth,
concurrency, startup delay and item limit — which is where the
services differ. The engine makes one call per op,
:meth:`ObjectStore.book`, which checks the item limit, books the op on
the store's :class:`~repro.simulation.resources.ServiceQueue`, bills
the request and charges the issuing process's ``wait`` and category
seconds, all in one frame. What it needs per store is resolved at
construction: a flat-priced service (S3) keeps one ``(price,
component, counter)`` entry per op from its meter's catalog, a free
one (ElastiCache, a VM disk, no meter) keeps none and skips billing,
and only DynamoDB, whose request units depend on the item size, calls
:meth:`ObjectStore._bill` per op. The profile refuses a negative or
non-finite latency or start-up delay and a non-positive bandwidth, so
every booked duration is finite and non-negative by construction. The
order of its float operations (queue, bill, charge) is part of the
contract: dollars and traces are pinned bit for bit.

A store may additionally carry a :class:`~repro.faults.plan.
StorageFaultPolicy` (attached by the job context when the config's
``storage_error_rate`` is non-zero). Each put/get then consults the
policy's deterministic error stream: failed attempts occupy the
service for one latency, wait out an exponential backoff, and are
billed like real requests; the data effect happens once, at the final
(successful) attempt's completion. With no policy attached the fast
path is untouched — byte-identical timing and dollars to the
pre-fault-plane engine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from heapq import heapreplace
from typing import Any, Iterable, Sequence

from repro.errors import (
    ConfigurationError,
    ItemTooLargeError,
    KeyNotFoundError,
    SimulationError,
    TransientStorageError,
)
from repro.pricing.meter import CostMeter
from repro.simulation.resources import ServiceQueue
from repro.simulation.tracing import TimeBreakdown
from repro.storage.ordered_index import OrderedKeyIndex
from repro.utils.serialization import SizedPayload

_MAX_CHAR = chr(0x10FFFF)


def _prefix_upper_bound(prefix: str) -> str | None:
    """Smallest string sorting after every string with `prefix`.

    Returns None when no such string exists (empty prefix or all
    characters already at the maximum code point), meaning the range
    extends to the end of the key space.
    """
    for i in range(len(prefix) - 1, -1, -1):
        if prefix[i] != _MAX_CHAR:
            return prefix[:i] + chr(ord(prefix[i]) + 1)
    return None


@dataclass(frozen=True)
class StorageProfile:
    """Performance/limit envelope of a storage service.

    bandwidth is bytes/second per connection; concurrency is how many
    operations the service can move in parallel before queueing (this
    is how Redis's single worker thread differs from Memcached's pool).
    """

    name: str
    latency_s: float
    bandwidth_bps: float
    concurrency: int
    startup_s: float = 0.0
    max_item_bytes: int | None = None

    def __post_init__(self) -> None:
        # Comparisons written so NaN fails them: every booked duration is
        # then finite and non-negative by construction, which is what lets
        # ObjectStore.book charge it without re-checking each op.
        if not 0.0 <= self.latency_s < math.inf:
            raise ConfigurationError(
                f"{self.name}: latency_s must be >= 0 and finite, got {self.latency_s!r}"
            )
        if not self.bandwidth_bps > 0.0:
            raise ConfigurationError(
                f"{self.name}: bandwidth_bps must be > 0, got {self.bandwidth_bps!r}"
            )
        if not 0.0 <= self.startup_s < math.inf:
            raise ConfigurationError(
                f"{self.name}: startup_s must be >= 0 and finite, got {self.startup_s!r}"
            )
        if self.concurrency < 1:
            raise ConfigurationError(f"{self.name}: concurrency must be >= 1")


class ObjectStore:
    """A simulated key/value object service.

    Subclasses price requests through :meth:`_request_prices` (flat
    per-op prices) or :meth:`_bill` (size-dependent ones), and a service
    that is not one k-server queue defines ``_service_times``. Data
    methods prefixed with `_do_` are invoked by the engine at
    operation-completion time and must not be called directly from
    worker code.
    """

    def __init__(
        self,
        profile: StorageProfile,
        meter: CostMeter | None = None,
    ) -> None:
        self.profile = profile
        self.meter = meter
        self._prices = self._request_prices(meter)
        # The service accepts requests only once started; ElastiCache
        # nodes take minutes to come up while S3 is an always-on service.
        self.available_at = profile.startup_s
        self.queue = ServiceQueue(profile.concurrency)
        # Fault plane (see module docstring). fault_policy is attached
        # by the job context. Crash-injected runs attach a retention
        # window (repro.comm.patterns.RetentionWindow): respawned
        # workers re-read round files their dead predecessor already
        # consumed, so those files outlive their last reader — until
        # every rank's durable checkpoint has moved past their round.
        self.fault_policy = None
        self.retention = None
        self.fault_events = {
            "storage_errors": 0, "retries": 0, "backoff_s": 0.0, "exhaustions": 0,
        }
        self._op_index = 0
        self._objects: dict[str, Any] = {}
        # Incremental index: all stored keys in sorted order (chunked,
        # so mutations never pay an O(n) memmove).
        self._keys = OrderedKeyIndex()
        # Wait index: prefix -> [live match count, [(needed, reg seq,
        # wake, process)], smallest needed], one record per prefix that
        # has a waiter.
        self._watched: dict[str, list] = {}
        # Registration order of waiters, across prefixes.
        self._wait_seq = itertools.count()
        # Watched prefixes per length, and the distinct lengths in
        # ascending order: a key is probed once per length, not once
        # per character.
        self._prefix_len_refs: dict[int, int] = {}
        self._prefix_lens: tuple[int, ...] = ()
        # Readers still to come for round files several workers consume.
        self._pending_reads: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Timing plane (called by the engine)
    # ------------------------------------------------------------------
    def stored_item_bytes(self, nbytes: int) -> int:
        """Bytes the service actually stores for an `nbytes` payload.

        Subclasses add serialization framing overhead here; the limit
        check below applies to this inflated size (this is what makes a
        47236-float RCV1 model exceed DynamoDB's 400 KB item limit even
        though the raw buffer is 378 KB).
        """
        return nbytes

    def book(
        self, op: str, nbytes: int, issued: float, trace: TimeBreakdown, category: str
    ) -> float:
        """Serve one `op` of `nbytes` issued at `issued`; returns its completion.

        The whole timing plane of a storage op in one frame, in this
        order: the item-limit check; the wait for the service to start;
        any transient failures (:meth:`_schedule_failed_attempts`, which
        books and bills the failed attempts first); the booking of the
        op itself on ``self.queue`` (re-read on every op: the service
        tier swaps a shared queue in), one latency for a list plus
        ``nbytes / bandwidth`` for put/get; the request's bill; and the
        issuer's seconds on `trace` — the queueing wait (service start
        after `issued`) as ``"wait"``, the rest as `category`. This is
        the one place a storage op's simulated time is charged.

        A retry-exhausted op charges `category` up to the instant it
        gave up and raises :class:`TransientStorageError` carrying that
        instant as ``failed_at``; the engine throws it into the issuing
        worker then — the seam KeyNotFoundError uses — so a generator
        (or the fault injector behind it) can recover instead of the
        whole simulation aborting.
        """
        profile = self.profile
        if op == "put" and profile.max_item_bytes is not None:
            stored = self.stored_item_bytes(nbytes)
            if stored > profile.max_item_bytes:
                raise ItemTooLargeError(
                    f"{profile.name}: item of {stored} B "
                    f"(payload {nbytes} B) exceeds limit {profile.max_item_bytes} B"
                )
        available_at = self.available_at
        arrival = available_at if available_at > issued else issued
        if self._service_times is not None:
            start, end = self._service_times(op, nbytes, arrival)
        else:
            retried = None
            if op == "put" or op == "get":
                duration = profile.latency_s + nbytes / profile.bandwidth_bps
                policy = self.fault_policy
                if policy is not None:
                    try:
                        retried = self._schedule_failed_attempts(op, arrival, policy)
                    except TransientStorageError as exc:
                        trace.seconds[category] += exc.failed_at - issued
                        raise
                    if retried is not None:
                        arrival = retried[1]
            else:  # a list moves only metadata
                duration = profile.latency_s
            # ServiceQueue.schedule, inline.
            queue = self.queue
            free = queue.free
            free_at = free[0]
            start = arrival if arrival > free_at else free_at
            end = start + duration
            heapreplace(free, end)
            queue.ops_booked += 1
            if retried is not None:
                start = retried[0]  # the op began with its first, failed attempt
        prices = self._prices
        if prices:
            price, component, counter = prices[op]
            meter = self.meter
            meter.dollars[component] += price
            meter.counters[counter] += 1
        elif prices is None:
            self._bill(op, nbytes)
        seconds = trace.seconds
        if start > issued:
            seconds["wait"] += start - issued
        seconds[category] += end - start
        return end

    # A service that is not one k-server queue (the parameter server)
    # defines `_service_times(op, nbytes, arrival) -> (start, end)`; it
    # then takes no transient failures and bills nothing of its own.
    _service_times = None

    def _request_prices(self, meter: CostMeter | None) -> dict | None:
        """Per-op ``(price, component, counter)`` of a flat-priced request.

        Resolved once, at construction, from the meter's catalog. ``{}``
        bills nothing per op; ``None`` means the price depends on the
        payload size, and :meth:`_bill` computes it per op.
        """
        return {}

    def _schedule_failed_attempts(self, op, arrival, policy):
        """Lay this op's transient failures onto simulated time.

        Returns ``None`` when the op succeeds first try (fast path), or
        ``(first_attempt_start, retry_arrival)``: the instant the first
        (failed) attempt started service and the instant the final
        attempt may be issued. Each failed attempt occupies the service
        for one latency (an error response is metadata, not a
        transfer), is billed like a real request, and is followed by
        the policy's exponential backoff. ``self._op_index`` advances
        exactly once per logical operation, so the plan's per-store
        error stream lines up across exact/record/replay runs.
        """
        op_index = self._op_index
        self._op_index += 1
        failures = policy.failures(op_index)
        if failures == 0:
            return None
        retry = policy.retry
        exhausted = failures > retry.limit
        events = self.fault_events
        events["storage_errors"] += failures
        # The final attempt of an exhausted op is abandoned, not retried.
        events["retries"] += failures if not exhausted else retry.limit
        first_start = None
        last_end = arrival
        for attempt in range(failures):
            start, end = self.queue.schedule(arrival, self.profile.latency_s)
            if first_start is None:
                first_start = start
            # A failed attempt is a real request but an error-sized
            # response: billed at zero transfer bytes (per-request
            # services charge the request; unit-priced services charge
            # one minimum unit), matching the latency-only service
            # occupation above.
            self._bill(op, 0)
            last_end = end
            if exhausted and attempt == failures - 1:
                break  # the op gives up here; no backoff after giving up
            backoff = retry.backoff_s(attempt)
            events["backoff_s"] += backoff
            arrival = end + backoff
        if exhausted:
            # Every failed attempt above was serviced, billed and
            # counted *before* the raise, so an exhaustion that aborts
            # (or recovers) a run still surfaces in the event summary.
            events["exhaustions"] += 1
            error = TransientStorageError(
                f"{self.profile.name}: {op} failed {failures} time(s), "
                f"exhausting the {retry.limit}-retry budget (op #{op_index})"
            )
            # When the op gives up (simulated completion of the last
            # failed attempt) — the engine delivers the error to the
            # issuing worker at this instant.
            error.failed_at = last_end
            raise error
        return first_start, arrival

    def record_polls(self, count: int) -> None:
        """Bill `count` metadata polls issued by a waiting worker."""
        self._bill("list", 0, count)

    def _bill(self, op: str, nbytes: int, count: int = 1) -> None:
        """Bill `count` requests of `op` at the store's flat per-op price.

        The counted path (poll batches, failed attempts); :meth:`book`
        inlines the one-request case. A store with no entry for `op`
        bills nothing; a store whose price depends on the payload size
        overrides this.
        """
        entry = self._prices.get(op)
        if entry is not None:
            self.meter.bill_request(entry, count)

    # ------------------------------------------------------------------
    # The wait index
    # ------------------------------------------------------------------
    def _move_counts(self, key: str, step: int) -> None:
        """Move the live count of every watched prefix of `key` by `step`.

        The probe :meth:`_do_put` runs inline: one ``key[:n]`` per
        watched prefix length, shortest first.
        """
        watched = self._watched
        size = len(key)
        for n in self._prefix_lens:
            if n > size:
                break
            record = watched.get(key[:n])
            if record is not None:
                record[0] += step

    def _unwatch(self, prefix: str) -> None:
        """Drop the record of a prefix whose last waiter left."""
        del self._watched[prefix]
        refs = self._prefix_len_refs
        refs[len(prefix)] -= 1
        if not refs[len(prefix)]:  # the last prefix of its length
            del refs[len(prefix)]
            self._prefix_lens = tuple(sorted(refs))

    def wait_for_count(self, prefix: str, needed: int, wake, proc) -> bool:
        """Block `proc` until `needed` keys share `prefix`; False if they do."""
        count = self._count_prefix(prefix)
        if count >= needed:
            return False
        record = self._watched.get(prefix)
        if record is None:
            record = self._watched[prefix] = [count, [], needed]
            refs = self._prefix_len_refs
            refs[len(prefix)] = refs.get(len(prefix), 0) + 1
            if refs[len(prefix)] == 1:  # a new length
                self._prefix_lens = tuple(sorted(refs))
        elif needed < record[2]:
            record[2] = needed
        record[1].append((needed, next(self._wait_seq), wake, proc))
        return True

    def cancel_wait(self, prefix: str, proc) -> None:
        """Forget `proc`'s wait on `prefix`.

        The kill path: without it, a key becoming visible after the
        waiter's death would bill polls for — and try to wake — a
        process that no longer exists.
        """
        record = self._watched[prefix]
        record[1] = remaining = [w for w in record[1] if w[-1] is not proc]
        if remaining:
            record[2] = min(w[0] for w in remaining)
        else:
            self._unwatch(prefix)

    # ------------------------------------------------------------------
    # Data plane (called by the engine at completion time)
    # ------------------------------------------------------------------
    def _do_put(self, key: str, value: Any) -> Sequence:
        """Store the object; returns the wake callbacks a *new* key satisfies.

        Stores, indexes and wake-checks in one frame. The waiters of
        every watched prefix whose live count reached their target wake
        in registration (seq) order across prefixes — so wake-up
        sequence numbers, and therefore all downstream tie-breaking,
        are deterministic. A watched prefix is probed once per watched
        length, and its record's smallest target answers "nobody here
        is satisfied yet" without looking at its waiters.
        """
        objects = self._objects
        if key in objects:  # an overwrite changes no count
            objects[key] = value
            return ()
        objects[key] = value
        self._keys.add(key)
        watched = self._watched
        if not watched:  # most puts land while nothing is watched
            return ()
        satisfied = None
        size = len(key)
        for n in self._prefix_lens:
            if n > size:
                break
            record = watched.get(prefix := key[:n])
            if record is None:
                continue
            record[0] = current = record[0] + 1
            if current < record[2]:
                continue
            waiters = record[1]
            if satisfied is None:
                satisfied = []
            satisfied.extend(w for w in waiters if w[0] <= current)
            remaining = [w for w in waiters if w[0] > current]
            if remaining:
                record[1] = remaining
                record[2] = min(w[0] for w in remaining)
            else:
                self._unwatch(prefix)
        if satisfied is None:
            return ()
        # Seqs are unique, so the wake callables are never compared.
        satisfied.sort(key=lambda entry: entry[1])
        return [entry[2] for entry in satisfied]

    def _do_get(self, key: str) -> Any:
        try:
            return self._objects[key]
        except KeyError:
            raise KeyNotFoundError(f"{self.profile.name}: no such key {key!r}") from None

    def _do_delete(self, key: str) -> None:
        if key in self._objects:
            del self._objects[key]
            self._keys.remove(key)
            if self._watched:
                self._move_counts(key, -1)

    def _do_delete_prefix(self, prefix: str) -> int:
        """Delete every key under `prefix` in one range delete; returns how many.

        The watched-prefix counters move with one probe per watched
        length up to ``len(prefix)`` — every removed key shares that
        prefix of `prefix` — and per key only for the longer lengths.
        """
        removed = self._keys.remove_range(prefix, _prefix_upper_bound(prefix))
        objects = self._objects
        for key in removed:
            del objects[key]
        watched = self._watched
        if watched and removed:
            size = len(prefix)
            for n in self._prefix_lens:
                if n <= size:
                    record = watched.get(prefix[:n])
                    if record is not None:
                        record[0] -= len(removed)
                    continue
                for key in removed:
                    if n <= len(key) and (record := watched.get(key[:n])) is not None:
                        record[0] -= 1
        return len(removed)

    def _do_list(self, prefix: str) -> list[str]:
        return self._keys.list_range(prefix, _prefix_upper_bound(prefix))

    def _count_prefix(self, prefix: str) -> int:
        record = self._watched.get(prefix)
        if record is not None:
            return record[0]
        return self._keys.count_range(prefix, _prefix_upper_bound(prefix))

    def seed_object(self, key: str, value: Any) -> None:
        """Place an object without simulated time (e.g. pre-uploaded data).

        A staging API for *before* the engine runs: the key is indexed
        (listings and prefix counts see it) but no waiter is notified —
        during a run, keys only become visible to blocked WaitKeyCount
        processes through a simulated Put of a new key.
        Like a put, `value` must be a ``SizedPayload``: its ``nbytes`` is
        what a later Get of `key` books.
        """
        if value.__class__ is not SizedPayload:
            raise SimulationError(
                f"{self.profile.name}: seeded {key!r} carries no size; "
                f"seed SizedPayload(value, nbytes), got {type(value).__name__}"
            )
        if key not in self._objects:
            self._keys.add(key)
            self._move_counts(key, 1)
        self._objects[key] = value

    def discard(self, key: str) -> None:
        """Zero-time housekeeping removal of a consumed object.

        Used by the communication patterns after a round's temporary
        files have been fully merged, so long simulations do not
        accumulate memory. Not billed and not timed — by construction
        the discarded keys can never be read again. Crash-injected runs
        attach a retention window instead: a respawned worker
        re-executes rounds back to its last durable checkpoint, so "can
        never be read again" only holds for rounds below the oldest
        live checkpoint — the window's floor. Retained keys are
        collected in bulk when the fault injector advances that floor.
        """
        if self.retention is not None and self.retention.retains(key):
            return
        self._do_delete(key)

    def discard_prefix(self, prefix: str) -> None:
        """:meth:`discard` every key under `prefix`, in one range delete.

        What a reducer calls on its consumed inbox once the round's
        contributions are merged. Under a retention window each key
        keeps :meth:`discard`'s verdict: when the window retains any of
        them, only the others leave, one by one.
        """
        retention = self.retention
        if retention is not None:
            keys = self._do_list(prefix)
            doomed = [key for key in keys if not retention.retains(key)]
            if len(doomed) < len(keys):
                for key in doomed:
                    self._do_delete(key)
                return
        self._do_delete_prefix(prefix)

    def expect_readers(self, key: str, readers: int) -> None:
        """Arm the last-reader count when a shared round file is (re)written.

        For files consumed by several workers (`ar/.../merged`,
        `sr/.../merged_{rank}`): the last reader discards the file, so
        long runs do not accumulate one object per round per pattern.
        Producer-initialized on every put, so a retried round that
        reuses a round id on the same store starts from a fresh count
        instead of inheriting a stale, partially decremented one from
        an aborted run. A crash-injected run arms nothing: respawned
        workers re-read and re-write round files in ways reader counts
        cannot track, and the retention window's floor sweep collects
        dead rounds instead.
        """
        if self.retention is None:
            self._pending_reads[key] = readers

    def discard_after_read(self, keys: Iterable[str]) -> None:
        """Note one completed read of each of `keys`; discard after the last one.

        One call per reader per round: the gather passes every slice it
        read. Safe with respect to simulated time: every reader's lookup
        happens at its Get's *issue* instant, while the discard happens
        only once every armed reader's Get has returned, so no reader
        can miss the object. Zero-time, unbilled housekeeping, like
        :meth:`discard`.
        """
        if isinstance(keys, str):
            raise TypeError(f"discard_after_read takes an iterable of keys, got {keys!r}")
        pending = self._pending_reads
        for key in keys:
            remaining = pending.get(key)
            if remaining is None:
                continue
            if remaining <= 1:
                del pending[key]
                self.discard(key)
            else:
                pending[key] = remaining - 1

    def __len__(self) -> int:
        return len(self._objects)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.profile.name!r}, {len(self)} objects)"
