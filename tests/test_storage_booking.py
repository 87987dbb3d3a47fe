"""`ObjectStore.book`: one store call per op, against the reference's chain.

The reference store (``tests/reference/store.py``) books a storage op as
the unfused chain — item limit, start-up wait, the failed attempts (each
one latency on the queue, billed, then a backoff), the op on the queue,
its bill, then the issuer's ``wait`` and category seconds. The seeded
worlds below pin one service each (S3, Memcached, Redis, DynamoDB with
over-limit puts, a VM disk, the parameter server; ``*_shared``: two
stores on one swapped-in queue, as the service tier's
``SharedServices.adopt`` does), fault-free under two catalogs and at a
30 % error rate with a retry budget small enough to be exhausted; every
completion, charge, dollar write, counter and fault event must agree bit
for bit.
"""

from __future__ import annotations

import pytest

from reference.harness import SeededPick, assert_same_world, build_world
from repro.pricing.catalog import PriceCatalog
from repro.pricing.meter import CostMeter
from repro.simulation.resources import ServiceQueue
from repro.simulation.tracing import TimeBreakdown
from repro.storage.services import MemcachedStore, S3Store, VMDiskStore

OPS = ("put", "get", "list")
SERVICES = {
    "s3": ("s3",), "s3_shared": ("s3", "s3"), "memcached": ("memcached",),
    "redis_shared": ("redis", "redis"), "dynamodb": ("dynamodb",), "vmdisk": ("vmdisk",),
    "ps": ("ps",),
}


STORAGE = ("put", "get", "put_each", "get_each", "list", "put", "get", "sleep")


def world(service, seed, **fixed):
    """Workers issuing storage ops only; over-limit puts strand DynamoDB's, so it has more."""
    kinds = SERVICES[service]
    _, ref = assert_same_world(build_world(
        SeededPick(f"book:{service}:{seed}:{sorted(fixed.items())}"), kinds=kinds,
        shared=len(kinds) > 1, workers=(12, 16) if service == "dynamodb" else (5, 8),
        ops=(20, 30), menu=STORAGE, fragile=False, **fixed))
    assert sum(store.booked for store in ref.stores) >= 20
    return ref


@pytest.mark.parametrize("service", SERVICES)
@pytest.mark.parametrize("catalog", ["default", "awkward"])
@pytest.mark.parametrize("seed", [0, 1])
def test_fault_free_mix_matches_the_chain(service, catalog, seed):
    ref = world(service, seed, catalog=catalog, fault=None)
    if service == "dynamodb":
        assert "over_limit_put" in ref.features


@pytest.mark.parametrize("service", SERVICES)
@pytest.mark.parametrize("retry_limit", [1, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_flaky_mix_matches_the_chain(service, retry_limit, seed):
    ref = world(service, seed, catalog="awkward", fault=(0.3, retry_limit))
    if service != "ps":  # the parameter server takes no transient failures
        assert sum(store.fault_events["retries"] for store in ref.stores) > 0
        if retry_limit == 1:
            assert "retry_exhaustion" in ref.features


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
