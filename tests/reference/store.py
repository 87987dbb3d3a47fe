"""Reference store: the storage contract with nothing clever in it.

Written from README's contract, slow on purpose:

* the data plane is a dict plus one flat sorted key list;
* who waits is one list in registration order, scanned whole on every
  new key: every waiter whose prefix now holds enough keys wakes, in
  that order (only a new key wakes anyone);
* a k-server queue books an op on the earliest-free server, found by a
  linear min;
* booking is the unfused chain — item limit, start-up wait, the failed
  attempts (each one latency on the queue, billed, then a backoff), the
  op on the queue, its bill, then the issuer's ``wait`` and category
  seconds;
* polls are billed one ``+=`` at a time;
* ``discard_prefix`` and a retention window's sweep delete key by key.

The harness hands it a real store's profile, the catalog and, for the
parameter server, the ``PSTimingModel`` as plain data; its queues and
everything else are its own.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort

import numpy as np

from repro.errors import ItemTooLargeError, KeyNotFoundError, TransientStorageError
from repro.pricing.catalog import DYNAMODB_READ_UNIT_BYTES, DYNAMODB_WRITE_UNIT_BYTES
from repro.utils.serialization import SizedPayload


class RefQueue:
    """k servers; an op takes the earliest-free one."""

    def __init__(self, slots: int) -> None:
        self.free = [0.0] * slots

    def book(self, arrival: float, duration: float) -> tuple[float, float]:
        i = self.free.index(min(self.free))
        start = max(arrival, self.free[i])
        self.free[i] = start + duration
        return start, self.free[i]


class RefMeter:
    """Dollars and request counters; each bill is logged as one write."""

    def __init__(self, catalog) -> None:
        self.catalog = catalog
        self.dollars: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.writes: list[tuple[str, str]] = []

    def bill(self, component: str, price: float, counter: str, count: int = 1) -> None:
        total = self.dollars.get(component, 0.0)
        for _ in range(count):
            total += price
        self.dollars[component] = total
        self.counters[counter] = self.counters.get(counter, 0) + count
        self.writes.append((component, total.hex()))


def round_of(key: str) -> int | None:
    """The round of an ``ar/<8 digits>[/-]...`` or ``sr/...`` key, else None."""
    digits = key[3:11]
    if key[:3] in ("ar/", "sr/") and len(digits) == 8 and digits.isdigit() \
            and key[11:12] in ("/", "-"):
        return int(digits)
    return None


class RefRetention:
    """Round files at or above `floor` outlive their discards."""

    def __init__(self, floor: int = 0) -> None:
        self.floor = floor
        self.collected = 0  # keys its advances deleted

    def retains(self, key: str) -> bool:
        index = round_of(key)
        return index is None or index >= self.floor

    def advance(self, store: RefStore, floor: int) -> int:
        removed = 0
        for index in range(self.floor, floor):
            for prefix in (f"ar/{index:08d}", f"sr/{index:08d}"):
                for key in store.listing(prefix):
                    store.delete(key)
                    removed += 1
        self.floor = max(self.floor, floor)
        self.collected += removed
        return removed


class RefStore:
    """One service: `kind` is s3 | dynamodb | memcached | redis | vmdisk | ps."""

    def __init__(self, kind, profile, meter, *, fault=None, available_at=None,
                 timing=None, params=None, lr=0.0, param_bytes=0) -> None:
        self.kind = kind
        self.profile = profile
        self.meter = meter
        self.queue = RefQueue(profile.concurrency)  # a world may swap a shared one in
        self.fault = fault
        self.available_at = profile.startup_s if available_at is None else available_at
        self.retention = None
        self.fault_events = {"storage_errors": 0, "retries": 0, "backoff_s": 0.0,
                             "exhaustions": 0}
        self.op_index = 0
        self.booked = 0  # ops booked, failed ones included
        self.woken = 0  # waiters a new key woke
        self.objects: dict = {}
        self.keys: list[str] = []
        self.waiters: list[tuple] = []  # (wait command, wake, process)
        self.readers: dict[str, int] = {}
        if kind == "ps":
            self.timing, self.params, self.lr, self.param_bytes = timing, params, lr, param_bytes
            self.ingress = RefQueue(timing.ingress_slots)
            self.egress = RefQueue(max(2, timing.ingress_slots))
            self.lock = RefQueue(1)

    # -- timing and billing --------------------------------------------------
    def book(self, op: str, nbytes: int, issued: float, trace, category: str) -> float:
        limit = self.profile.max_item_bytes
        if op == "put" and limit is not None:
            stored = int(nbytes * 1.12) + 256  # DynamoDB's framing
            if stored > limit:
                raise ItemTooLargeError(
                    f"{self.profile.name}: item of {stored} B "
                    f"(payload {nbytes} B) exceeds limit {limit} B"
                )
        self.booked += 1
        arrival = max(issued, self.available_at)
        try:
            start, end = self.serve(op, nbytes, arrival)
        except TransientStorageError as exc:
            trace[category] += exc.failed_at - issued
            raise
        self.bill(op, nbytes)
        if start > issued:
            trace["wait"] += start - issued
        trace[category] += end - start
        return end

    def serve(self, op: str, nbytes: int, arrival: float) -> tuple[float, float]:
        latency = self.profile.latency_s
        if self.kind == "ps":
            return self.ps_serve(op, nbytes, arrival)
        if op not in ("put", "get"):
            return self.queue.book(arrival, latency)
        first = None
        if self.fault is not None:
            first, arrival = self.fail(op, arrival)
        start, end = self.queue.book(arrival, latency + nbytes / self.profile.bandwidth_bps)
        return (start if first is None else first), end

    def fail(self, op: str, arrival: float):
        """Lay out this op's failed attempts; (first attempt's start, retry arrival)."""
        index = self.op_index
        self.op_index += 1
        failures = self.fault.failures(index)
        retry = self.fault.retry
        exhausted = failures > retry.limit
        events = self.fault_events
        events["storage_errors"] += failures
        events["retries"] += retry.limit if exhausted else failures
        first = None
        for attempt in range(failures):
            start, end = self.queue.book(arrival, self.profile.latency_s)
            if first is None:
                first = start
            self.bill(op, 0)
            if exhausted and attempt == failures - 1:
                events["exhaustions"] += 1
                error = TransientStorageError(
                    f"{self.profile.name}: {op} failed {failures} time(s), "
                    f"exhausting the {retry.limit}-retry budget (op #{index})"
                )
                error.failed_at = end
                raise error
            backoff = retry.backoff_s(attempt)
            events["backoff_s"] += backoff
            arrival = end + backoff
        return first, arrival

    def ps_serve(self, op: str, nbytes: int, arrival: float) -> tuple[float, float]:
        timing = self.timing
        if op == "put":
            serialized = arrival + timing.lambda_serdes_s(nbytes)
            _, received = self.ingress.book(
                serialized, timing.transfer_s(nbytes) + timing.ps_deser_s(nbytes))
            _, updated = self.lock.book(received, timing.update_s(nbytes))
            return arrival, updated
        if op == "get":
            _, sent = self.egress.book(
                arrival, timing.ps_deser_s(nbytes) + timing.transfer_s(nbytes))
            return arrival, sent + timing.lambda_serdes_s(nbytes)
        return arrival, arrival + self.profile.latency_s

    def bill(self, op: str, nbytes: int, count: int = 1) -> None:
        catalog = self.meter.catalog
        if self.kind == "s3":
            price = catalog.s3_per_get if op == "get" else catalog.s3_per_put
            self.meter.bill("s3", price, f"s3_{op}", count)
        elif self.kind == "dynamodb":
            if op == "put":
                unit, rate = DYNAMODB_WRITE_UNIT_BYTES, catalog.dynamodb_per_write_unit
            else:
                unit, rate = DYNAMODB_READ_UNIT_BYTES, catalog.dynamodb_per_read_unit
            price = max(1, math.ceil(nbytes / unit)) * rate
            self.meter.bill("dynamodb", price, f"dynamodb_{op}", count)

    def record_polls(self, count: int) -> None:
        self.bill("list", 0, count)

    # -- data plane ----------------------------------------------------------
    def put(self, key: str, value) -> list:
        """Store `value`; the wake callbacks a new key satisfies, in wake order."""
        if self.kind == "ps" and key.startswith("grad/"):
            gradient = np.asarray(value.value, dtype=np.float64)
            if gradient.shape == self.params.shape:
                self.params -= self.lr * gradient
                return []
        new = key not in self.objects
        self.objects[key] = value
        if not new:
            return []
        insort(self.keys, key)
        hit = [w for w in self.waiters
               if key.startswith(w[0].prefix) and self.count(w[0].prefix) >= w[0].count]
        self.waiters = [w for w in self.waiters if all(w is not h for h in hit)]
        self.woken += len(hit)
        return [wake for _, wake, _ in hit]

    def get(self, key: str):
        if self.kind == "ps" and key == "model":
            return SizedPayload(self.params.copy(), self.param_bytes)
        if key not in self.objects:
            raise KeyNotFoundError(f"{self.profile.name}: no such key {key!r}")
        return self.objects[key]

    def delete(self, key: str) -> None:
        if key in self.objects:
            del self.objects[key]
            self.keys.remove(key)

    def listing(self, prefix: str) -> list[str]:
        out = []
        for key in self.keys[bisect_left(self.keys, prefix):]:
            if not key.startswith(prefix):
                break
            out.append(key)
        return out

    def count(self, prefix: str) -> int:
        return len(self.listing(prefix))

    def add_waiter(self, cmd, wake, proc) -> None:
        self.waiters.append((cmd, wake, proc))

    def cancel_waits(self, proc) -> None:
        self.waiters = [w for w in self.waiters if w[2] is not proc]

    # -- zero-time housekeeping ----------------------------------------------
    def seed_object(self, key: str, value) -> None:
        if key not in self.objects:
            insort(self.keys, key)
        self.objects[key] = value

    def discard(self, key: str) -> None:
        if self.retention is None or not self.retention.retains(key):
            self.delete(key)

    def discard_prefix(self, prefix: str) -> None:
        for key in self.listing(prefix):
            self.discard(key)

    def expect_readers(self, key: str, readers: int) -> None:
        if self.retention is None:
            self.readers[key] = readers

    def discard_after_read(self, keys) -> None:
        for key in keys:
            left = self.readers.get(key)
            if left is None:
                continue
            if left <= 1:
                del self.readers[key]
                self.discard(key)
            else:
                self.readers[key] = left - 1
