"""`ObjectStore.book` against the chain of calls it replaced.

Before one storage op was booked, billed and charged in one frame, the
engine sized the payload, called ``schedule_op`` (which called
``op_duration``, ``ServiceQueue.schedule`` and the store's ``_bill``,
S3's through ``CostMeter.bill_s3_request``) and then charged the
issuer in ``Engine._charge_op``. That chain is kept here as a
test-only oracle, and seeded random put/get/list/delete mixes run
through both on twin stores: every completion, every per-op ``wait`` /
category charge, every meter dollar and counter, every booking count,
fault event and raised error must agree bit for bit (``float.hex``).

The mixes cover every service (S3, Memcached, Redis, DynamoDB with
over-limit puts, a VM disk and the parameter server), arrivals before a
cache node has started, two stores sharing one swapped-in queue (the
service tier's ``SharedServices.adopt``), and flaky storage at a 30 %
error rate with a retry budget small enough to be exhausted.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict

import numpy as np
import pytest

from repro.errors import ItemTooLargeError, TransientStorageError
from repro.faults import FaultPlan, RetryPolicy, StorageFaultPolicy
from repro.iaas.ps import ParameterServer, make_parameter_server
from repro.pricing.catalog import PriceCatalog
from repro.pricing.meter import CostMeter
from repro.simulation.resources import ServiceQueue
from repro.simulation.tracing import TimeBreakdown
from repro.storage.services import (
    DynamoDBStore,
    MemcachedStore,
    RedisStore,
    S3Store,
    VMDiskStore,
)

MB = 1024 * 1024
OPS = ("put", "get", "list", "delete")

# Prices whose sums round differently in every order, so a bill added
# out of order shows in the last bit of the total.
AWKWARD = PriceCatalog(
    s3_per_put=math.sqrt(2) / 10,
    s3_per_get=1 / 3,
    dynamodb_per_write_unit=math.pi / 7,
    dynamodb_per_read_unit=math.e / 11,
)


# ----------------------------------------------------------------------
# The replaced chain (test-only oracle)
# ----------------------------------------------------------------------
def oracle_op_duration(store, op, nbytes):
    if op in ("put", "get"):
        return store.profile.latency_s + nbytes / store.profile.bandwidth_bps
    return store.profile.latency_s


def oracle_bill(store, op, nbytes, count=1):
    """``_bill`` as S3 / DynamoDB / the free services defined it."""
    meter = store.meter
    if meter is None:
        return
    if isinstance(store, S3Store):
        catalog = meter.catalog
        price = catalog.s3_per_put if op in ("put", "list", "delete") else catalog.s3_per_get
        meter._add_repeated("s3", price, count)
        meter.counters[f"s3_{op}"] += count
    elif isinstance(store, DynamoDBStore):
        meter.bill_dynamodb_request(op, nbytes, count)


def oracle_ps_schedule_op(store, op, nbytes, arrival):
    arrival = max(arrival, store.available_at)
    timing = store.timing
    if op == "put":
        ser_done = arrival + timing.lambda_serdes_s(nbytes)
        ingress_duration = timing.transfer_s(nbytes) + timing.ps_deser_s(nbytes)
        _, received = store._ingress.schedule(ser_done, ingress_duration)
        _, updated = store._lock.schedule(received, timing.update_s(nbytes))
        return arrival, updated
    if op == "get":
        egress_duration = timing.ps_deser_s(nbytes) + timing.transfer_s(nbytes)
        _, sent = store._egress.schedule(arrival, egress_duration)
        return arrival, sent + timing.lambda_serdes_s(nbytes)
    return arrival, arrival + store.profile.latency_s


def oracle_schedule_op(store, op, nbytes, arrival):
    if isinstance(store, ParameterServer):
        return oracle_ps_schedule_op(store, op, nbytes, arrival)
    if (
        op == "put"
        and store.profile.max_item_bytes is not None
        and store.stored_item_bytes(nbytes) > store.profile.max_item_bytes
    ):
        raise ItemTooLargeError(f"{store.profile.name}: item too large")
    arrival = max(arrival, store.available_at)
    policy = store.fault_policy
    if policy is not None and op in ("put", "get"):
        retried = store._schedule_failed_attempts(op, arrival, policy)
        if retried is not None:
            first_start, arrival = retried
            duration = oracle_op_duration(store, op, nbytes)
            _, end = store.queue.schedule(arrival, duration)
            oracle_bill(store, op, nbytes)
            return first_start, end
    duration = oracle_op_duration(store, op, nbytes)
    start, end = store.queue.schedule(arrival, duration)
    oracle_bill(store, op, nbytes)
    return start, end


def oracle_charge_op(trace, category, issued, start, end):
    if start > issued:
        trace.add("wait", start - issued)
    trace.add(category, end - start)


def oracle_book(store, op, nbytes, issued, trace, category):
    """schedule_op + _charge_op, and the engine's charge of an exhausted op."""
    try:
        start, end = oracle_schedule_op(store, op, nbytes, issued)
    except TransientStorageError as exc:
        failed_at = max(issued, exc.failed_at if exc.failed_at is not None else issued)
        trace.add(category, failed_at - issued)
        raise
    oracle_charge_op(trace, category, issued, start, end)
    return end


def _oracle_store(store):
    # Failed attempts bill through the store's own `_bill`: route them
    # to the oracle's too.
    store._bill = lambda op, nbytes, count=1: oracle_bill(store, op, nbytes, count)
    return store


# ----------------------------------------------------------------------
# Twin worlds
# ----------------------------------------------------------------------
def _make_stores(service, meter):
    """One or two stores of `service` billing `meter`."""
    if service == "s3":
        return [S3Store(meter=meter)]
    if service == "s3_shared":
        # Two tenants' stores on one class-wide queue, swapped in after
        # construction as the service tier does.
        stores = [S3Store(meter=meter), S3Store(meter=meter)]
        shared = ServiceQueue(stores[0].profile.concurrency)
        for store in stores:
            store.queue = shared
        return stores
    if service == "memcached":
        return [MemcachedStore(meter=meter)]
    if service == "redis_shared":
        stores = [RedisStore(meter=meter), RedisStore(meter=meter)]
        shared = ServiceQueue(1)
        for store in stores:
            store.queue = shared
        return stores
    if service == "dynamodb":
        return [DynamoDBStore(meter=meter)]
    if service == "vmdisk":
        return [VMDiskStore(meter=meter)]
    if service == "ps":
        return [
            make_parameter_server(
                "c5.xlarge", np.zeros(4), logical_param_bytes=4 * MB, lr=0.1, meter=meter
            )
        ]
    raise AssertionError(service)


class _Ledger(defaultdict):
    """``meter.dollars`` keeping every write: bills must agree in order.

    Two bills of different prices added in either order usually reach
    the same total (within one binade the rounding of an add does not
    depend on the running total), so the totals alone would not see a
    bill moved ahead of another.
    """

    def __init__(self):
        super().__init__(float)
        self.writes = []

    def __setitem__(self, component, dollars):
        self.writes.append((component, dollars.hex()))
        super().__setitem__(component, dollars)


def _world(service, catalog, error_rate, retry_limit, oracle):
    meter = CostMeter(catalog)
    meter.dollars = _Ledger()
    stores = _make_stores(service, meter)
    for i, store in enumerate(stores):
        if error_rate:
            plan = FaultPlan(
                seed=11, storage_error_rate=error_rate, retry=RetryPolicy(limit=retry_limit)
            )
            store.fault_policy = StorageFaultPolicy(plan, f"store{i}")
        if oracle:
            _oracle_store(store)
    return meter, stores


def _mix(rng, n, stores, startup_s):
    """(store index, op, nbytes, issued) with non-decreasing issue times.

    Starts inside a cache node's start-up window and bursts many ops at
    one instant so the queues fill.
    """
    issued = 0.0
    out = []
    horizon = startup_s + 5.0
    for _ in range(n):
        if rng.random() < 0.6:
            issued += rng.expovariate(50.0 / max(horizon, 1.0))
        op = rng.choice(OPS)
        nbytes = 0 if op in ("list", "delete") else rng.choice(
            (0, 8, 1000, 4 * 1024, 10 * 1024 + 1, 350 * 1024, 390 * 1024, 3 * MB)
        )
        out.append((rng.randrange(len(stores)), op, nbytes, issued))
    return out


def _queues(store):
    # A store's own queue plus, for the parameter server, its ingress,
    # egress and lock queues.
    return [q for q in vars(store).values() if isinstance(q, ServiceQueue)]


def _snapshot(meter, stores):
    return (
        meter.dollars.writes,
        dict(meter.counters),
        list(meter.counters),
        [[q.ops_booked for q in _queues(store)] for store in stores],
        [[[t.hex() for t in q.free] for q in _queues(store)] for store in stores],
        [dict(store.fault_events, backoff_s=store.fault_events["backoff_s"].hex())
         for store in stores],
        [store._op_index for store in stores],
    )


def _trace_hex(trace):
    return {k: v.hex() for k, v in trace.seconds.items()}


SERVICES = ("s3", "s3_shared", "memcached", "redis_shared", "dynamodb", "vmdisk", "ps")


def run_differential(service, catalog, error_rate, retry_limit, seed, n=300):
    """Run one seeded mix through both paths; returns how many errors were raised."""
    fused_meter, fused = _world(service, catalog, error_rate, retry_limit, oracle=False)
    oracle_meter, oracle = _world(service, catalog, error_rate, retry_limit, oracle=True)
    rng = random.Random(f"{service}:{seed}")
    mix = _mix(rng, n, fused, fused[0].available_at)
    fused_total, oracle_total = TimeBreakdown(), TimeBreakdown()
    raised = {"ItemTooLargeError": 0, "TransientStorageError": 0}
    for i, (which, op, nbytes, issued) in enumerate(mix):
        category = rng.choice(("comm", "load"))
        outcomes = []
        for stores, total, call in (
            (fused, fused_total, lambda s, *a: s.book(*a)),
            (oracle, oracle_total, lambda s, *a: oracle_book(s, *a)),
        ):
            one = TimeBreakdown()  # a fresh trace reads back (start, end) exactly
            try:
                end = call(stores[which], op, nbytes, issued, one, category)
                outcome = ("ok", end.hex())
            except (ItemTooLargeError, TransientStorageError) as exc:
                failed_at = getattr(exc, "failed_at", None)
                outcome = (type(exc).__name__, failed_at and failed_at.hex())
            for name, seconds in one.seconds.items():
                total.seconds[name] += seconds
            outcomes.append((outcome, _trace_hex(one)))
        assert outcomes[0] == outcomes[1], f"op #{i} {op} {nbytes} B at {issued!r}"
        if outcomes[0][0][0] != "ok":
            raised[outcomes[0][0][0]] += 1
        assert _snapshot(fused_meter, fused) == _snapshot(oracle_meter, oracle), f"op #{i}"
    assert _trace_hex(fused_total) == _trace_hex(oracle_total)
    return raised


@pytest.mark.parametrize("service", SERVICES)
@pytest.mark.parametrize("catalog", [PriceCatalog(), AWKWARD], ids=["default", "awkward"])
@pytest.mark.parametrize("seed", [0, 1])
def test_fault_free_mix_matches_the_chain(service, catalog, seed):
    raised = run_differential(service, catalog, 0.0, 0, seed)
    assert raised["TransientStorageError"] == 0
    if service == "dynamodb":
        assert raised["ItemTooLargeError"] > 0  # the over-limit puts were exercised


@pytest.mark.parametrize("service", SERVICES)
@pytest.mark.parametrize("retry_limit", [1, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_flaky_mix_matches_the_chain(service, retry_limit, seed):
    raised = run_differential(service, AWKWARD, 0.3, retry_limit, seed, n=600)
    if service != "ps":  # the parameter server takes no transient failures
        if retry_limit == 1:
            assert raised["TransientStorageError"] > 0  # exhaustion was exercised


def test_arrivals_before_startup_wait_for_the_node():
    store = MemcachedStore(meter=CostMeter())
    trace = TimeBreakdown()
    end = store.book("get", 1024, 1.0, trace, "comm")
    assert trace.get("wait") == store.available_at - 1.0
    assert end == store.available_at + trace.get("comm")


def test_swapped_in_queue_is_read_on_every_op():
    store = S3Store()
    store.book("put", 10, 0.0, TimeBreakdown(), "comm")
    shared = ServiceQueue(store.profile.concurrency)
    store.queue = shared
    store.book("put", 10, 0.0, TimeBreakdown(), "comm")
    assert shared.ops_booked == 1


def test_free_services_resolve_no_prices_and_bill_nothing():
    meter = CostMeter()
    for store in (MemcachedStore(meter=meter), VMDiskStore(meter=meter), S3Store()):
        for op in OPS:
            store.book(op, 100, 200.0, TimeBreakdown(), "comm")
    assert meter.dollars == {} and meter.counters == {}


def test_s3_prices_are_resolved_once_per_store():
    meter = CostMeter()
    store = S3Store(meter=meter)
    assert store._prices == meter.s3_request_prices()
    with pytest.raises(ValueError, match="invalid charge"):
        S3Store(meter=CostMeter(PriceCatalog(s3_per_get=float("nan"))))
