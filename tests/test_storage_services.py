"""Unit tests for the simulated storage services."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ItemTooLargeError, SimulationError
from repro.pricing.meter import CostMeter
from repro.simulation.commands import Get, Put
from repro.simulation.engine import Engine
from repro.simulation.tracing import TimeBreakdown
from repro.storage.base import ObjectStore, StorageProfile
from repro.storage.services import (
    DynamoDBStore,
    MemcachedStore,
    RedisStore,
    S3Store,
    VMDiskStore,
    make_channel,
)
from repro.utils.serialization import SizedPayload

MB = 1024 * 1024


def _book(store, op, nbytes, issued=0.0):
    """(service start, completion) of one op, read back from the issuer's trace."""
    trace = TimeBreakdown()
    end = store.book(op, nbytes, issued, trace, "comm")
    return issued + trace.get("wait"), end


class TestProfiles:
    def test_s3_is_always_on(self):
        assert S3Store().available_at == 0.0

    def test_elasticache_has_startup_delay(self):
        assert MemcachedStore().available_at > 100.0
        assert RedisStore().available_at > 100.0

    def test_redis_is_single_threaded(self):
        assert RedisStore().profile.concurrency == 1
        assert MemcachedStore().profile.concurrency > 1

    def test_unknown_cache_node_rejected(self):
        with pytest.raises(ConfigurationError):
            MemcachedStore(node="cache.z9.mega")

    def test_invalid_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            StorageProfile(name="bad", latency_s=-1, bandwidth_bps=1, concurrency=1)
        with pytest.raises(ConfigurationError):
            StorageProfile(name="bad", latency_s=0, bandwidth_bps=1, concurrency=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("latency_s", float("nan")),
            ("latency_s", float("inf")),
            ("latency_s", -1e-9),
            ("bandwidth_bps", float("nan")),
            ("bandwidth_bps", 0.0),
            ("bandwidth_bps", -1.0),
            ("startup_s", float("nan")),
            ("startup_s", float("inf")),
            ("startup_s", -1.0),
        ],
    )
    def test_non_finite_or_negative_envelope_rejected(self, field, value):
        fields = {"latency_s": 0.01, "bandwidth_bps": 1.0, "startup_s": 0.0}
        fields[field] = value
        with pytest.raises(ConfigurationError, match=field):
            StorageProfile(name="bad", concurrency=1, **fields)

    def test_infinite_bandwidth_books_a_latency_only_transfer(self):
        # bytes / inf is 0.0: finite, so the envelope accepts it.
        profile = StorageProfile("x", latency_s=0.01, bandwidth_bps=float("inf"), concurrency=1)
        assert _book(ObjectStore(profile), "put", 10 * MB) == (0.0, 0.01)


class TestTiming:
    def test_put_duration_is_latency_plus_transfer(self):
        store = S3Store()
        start, end = _book(store, "put", 65 * MB)
        assert start == 0.0
        # 65 MB at 65 MB/s = 1 s, plus 80 ms latency.
        assert end == pytest.approx(1.08, rel=1e-3)

    def test_ops_queue_when_concurrency_exhausted(self):
        store = RedisStore()
        store.available_at = 0.0
        first = _book(store, "put", 63 * MB)
        second = _book(store, "put", 63 * MB)
        assert second[0] >= first[1]  # serialized behind the first

    def test_memcached_parallelism_beats_redis(self):
        mc = MemcachedStore()
        mc.available_at = 0.0
        rd = RedisStore()
        rd.available_at = 0.0
        mc_end = max(_book(mc, "put", 63 * MB)[1] for _ in range(8))
        rd_end = max(_book(rd, "put", 63 * MB)[1] for _ in range(8))
        assert mc_end < rd_end

    def test_ops_wait_for_startup(self):
        store = MemcachedStore()
        start, end = _book(store, "get", 1024)
        assert start >= store.available_at


class TestDynamoDB:
    def test_small_item_accepted(self):
        store = DynamoDBStore()
        _book(store, "put", 100 * 1024)

    def test_large_item_rejected(self):
        store = DynamoDBStore()
        with pytest.raises(ItemTooLargeError):
            _book(store, "put", 500 * 1024)

    def test_rcv1_model_rejected_via_serialization_overhead(self):
        # 47236 float64 = 377,888 raw bytes; framing pushes it past 400 KB.
        store = DynamoDBStore()
        with pytest.raises(ItemTooLargeError):
            _book(store, "put", 47_236 * 8)

    def test_higgs_model_fits(self):
        store = DynamoDBStore()
        _book(store, "put", 28 * 8)


class TestBilling:
    def test_s3_bills_requests(self):
        meter = CostMeter()
        store = S3Store(meter=meter)
        _book(store, "put", 1024)
        _book(store, "get", 1024)
        assert meter.counters["s3_put"] == 1
        assert meter.counters["s3_get"] == 1
        assert meter.total > 0

    def test_dynamodb_bills_by_request_units(self):
        meter = CostMeter()
        store = DynamoDBStore(meter=meter)
        _book(store, "put", 10 * 1024)  # 10 write units
        ten_kb = meter.total
        meter2 = CostMeter()
        store2 = DynamoDBStore(meter=meter2)
        _book(store2, "put", 1024)  # 1 write unit
        assert ten_kb > meter2.total

    def test_poll_billing(self):
        meter = CostMeter()
        store = S3Store(meter=meter)
        store.record_polls(5)
        assert meter.counters["s3_list"] == 5


class TestChannelFactory:
    @pytest.mark.parametrize("kind", ["s3", "memcached", "redis", "dynamodb"])
    def test_make_channel(self, kind):
        channel = make_channel(kind)
        assert channel.kind == kind

    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigurationError):
            make_channel("floppy-disk")

    def test_elasticache_channels_carry_node(self):
        channel = make_channel("memcached", node="cache.m5.large")
        assert channel.node == "cache.m5.large"
        assert channel.startup_s > 0


class TestDataPlane:
    def test_roundtrip_through_engine(self):
        engine = Engine()
        store = VMDiskStore()
        payload = SizedPayload(np.arange(4), 32)

        def proc():
            yield Put(store, "x", payload)
            value = yield Get(store, "x")
            return value

        p = engine.spawn(proc(), "p")
        engine.run()
        assert np.array_equal(p.result.value, np.arange(4))

    @pytest.mark.parametrize("value", [1, b"abc", np.arange(4), None])
    def test_seed_object_refuses_an_unsized_value(self, value):
        # A seeded object is later read by a Get, which books its nbytes.
        store = S3Store()
        with pytest.raises(SimulationError, match="seeded 'x' carries no size"):
            store.seed_object("x", value)
        assert len(store) == 0 and store._count_prefix("") == 0

    def test_discard_is_silent_and_unbilled(self):
        meter = CostMeter()
        store = S3Store(meter=meter)
        store.seed_object("x", SizedPayload(1, 8))
        store.discard("x")
        store.discard("x")  # idempotent
        assert len(store) == 0
        assert meter.total == 0

    def test_discard_after_read_takes_an_iterable_of_keys(self):
        store = S3Store()
        for key in ("a", "b"):
            store.seed_object(key, SizedPayload(1, 8))
            store.expect_readers(key, 2)
        store.discard_after_read(iter(["a", "b"]))
        store.discard_after_read(("a",))
        assert sorted(store._objects) == ["b"]  # "a" lost its last reader
        with pytest.raises(TypeError, match="iterable of keys"):
            store.discard_after_read("b")  # a bare key would iterate its characters

    def test_count_prefix(self):
        store = S3Store()
        store.seed_object("a/1", SizedPayload(1, 8))
        store.seed_object("a/2", SizedPayload(2, 8))
        store.seed_object("b/1", SizedPayload(3, 8))
        assert store._count_prefix("a/") == 2
