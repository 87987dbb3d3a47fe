"""Unit tests for the storage data-plane index and batched billing.

Covers the chunked ordered key index (:mod:`repro.storage.
ordered_index`) directly — randomized cross-checks against a flat
sorted-list reference model plus adversarial key sequences — and
through :mod:`repro.storage.base`'s registered-prefix live counters,
the float-heap slot picker in :mod:`repro.simulation.resources`, the
batched poll billing, the payload sizing fast path, and the
communication patterns' round-file garbage collection.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort

import numpy as np
import pytest

from repro.pricing.meter import CostMeter
from repro.simulation.commands import Put, WaitKeyCount
from repro.simulation.engine import Engine
from repro.simulation.resources import ServiceQueue
from repro.storage.base import ObjectStore, StorageProfile, _prefix_upper_bound
from repro.storage.ordered_index import OrderedKeyIndex
from repro.storage.services import DynamoDBStore, S3Store
from repro.utils.serialization import SizedPayload, payload_nbytes


def make_store() -> ObjectStore:
    return ObjectStore(
        StorageProfile(name="mem", latency_s=0.0, bandwidth_bps=1e9, concurrency=4)
    )


class TestPrefixUpperBound:
    def test_simple(self):
        assert _prefix_upper_bound("ab") == "ac"

    def test_empty_means_unbounded(self):
        assert _prefix_upper_bound("") is None

    def test_trailing_max_char_carries(self):
        top = chr(0x10FFFF)
        assert _prefix_upper_bound("a" + top) == "b"
        assert _prefix_upper_bound(top * 3) is None


class TestSortedIndex:
    def test_list_matches_brute_force(self):
        store = make_store()
        rng = np.random.default_rng(3)
        alphabet = list("abc/_")
        keys = {
            "".join(rng.choice(alphabet, size=rng.integers(1, 10)))
            for _ in range(200)
        }
        for key in keys:
            store._do_put(key, 1)
        for prefix in ["", "a", "ab", "c/", "zz", "a" * 12]:
            expected = sorted(k for k in keys if k.startswith(prefix))
            assert store._do_list(prefix) == expected
            assert store._count_prefix(prefix) == len(expected)

    def test_overwrite_does_not_duplicate(self):
        store = make_store()
        store._do_put("k", 1)
        store._do_put("k", 2)
        assert store._do_list("") == ["k"]
        assert len(store) == 1
        assert store.peek("k") == 2

    def test_delete_and_discard_update_index(self):
        store = make_store()
        for key in ("p/1", "p/2", "q/1"):
            store._do_put(key, 0)
        store._do_delete("p/1")
        store.discard("q/1")
        store._do_delete("absent")  # idempotent
        assert store._do_list("") == ["p/2"]
        assert store._count_prefix("p/") == 1

    def test_seed_object_is_indexed(self):
        store = make_store()
        store.seed_object("data/part_0", "x")
        assert store._do_list("data/") == ["data/part_0"]
        assert store._count_prefix("data/") == 1


class _ReferenceModel:
    """Flat sorted list with the exact semantics the chunked index claims."""

    def __init__(self):
        self.keys: list[str] = []

    def add(self, key):
        insort(self.keys, key)

    def remove(self, key):
        self.keys.remove(key)

    def list_range(self, lo, hi):
        start = bisect_left(self.keys, lo)
        stop = len(self.keys) if hi is None else bisect_left(self.keys, hi)
        return self.keys[start:stop]

    def count_range(self, lo, hi):
        return len(self.list_range(lo, hi))


class TestOrderedKeyIndex:
    """The chunked sorted list vs the flat reference, op for op.

    Small ``load`` factors force constant split/merge churn, so the
    rebalancing paths are exercised by every test, not just at 10^5+
    keys.
    """

    @pytest.mark.parametrize("load", [4, 32, 512])
    def test_randomized_against_reference(self, load):
        rng = random.Random(20210620 + load)
        index, ref = OrderedKeyIndex(load=load), _ReferenceModel()
        present: set[str] = set()
        for step in range(4000):
            roll = rng.random()
            if roll < 0.55 or not present:
                key = f"{rng.randrange(40):03d}/{rng.randrange(500):04d}"
                if key not in present:
                    present.add(key)
                    index.add(key)
                    ref.add(key)
            elif roll < 0.85:
                key = rng.choice(ref.keys)
                present.discard(key)
                index.remove(key)
                ref.remove(key)
            else:
                lo = f"{rng.randrange(40):03d}"
                hi = None if rng.random() < 0.3 else _prefix_upper_bound(lo)
                assert index.list_range(lo, hi) == ref.list_range(lo, hi)
                assert index.count_range(lo, hi) == ref.count_range(lo, hi)
            if step % 500 == 0:
                assert list(index) == ref.keys
                assert len(index) == len(ref.keys)
        assert list(index) == ref.keys

    @pytest.mark.parametrize(
        "sequence_name", ["ascending", "descending", "sawtooth", "hotspot"]
    )
    def test_adversarial_sequences(self, sequence_name):
        """Orders chosen to stress one rebalancing path each.

        ascending appends to the last chunk forever (split-heavy tail);
        descending inserts at position 0 of the first chunk; sawtooth
        alternates insert/delete at the same boundary to hunt for
        split/merge ping-pong; hotspot drains a single chunk through
        the merge path while neighbours stay full.
        """
        n = 600
        if sequence_name == "ascending":
            ops = [("add", f"k{i:05d}") for i in range(n)]
            ops += [("remove", f"k{i:05d}") for i in range(n)]
        elif sequence_name == "descending":
            ops = [("add", f"k{n - i:05d}") for i in range(n)]
            ops += [("remove", f"k{n - i:05d}") for i in range(n)]
        elif sequence_name == "sawtooth":
            ops = [("add", f"k{i:05d}") for i in range(n)]
            for i in range(n // 2):
                ops.append(("remove", f"k{i:05d}"))
                ops.append(("add", f"k{i:05d}"))
        else:  # hotspot: fill three bands, drain the middle one
            ops = [("add", f"{band}/{i:05d}") for band in "abc" for i in range(n)]
            ops += [("remove", f"b/{i:05d}") for i in range(n)]
        index, ref = OrderedKeyIndex(load=8), _ReferenceModel()
        for op, key in ops:
            getattr(index, op)(key)
            getattr(ref, op)(key)
        assert list(index) == ref.keys
        assert len(index) == len(ref.keys)
        for lo in ("", "a/", "b/", "k00100", "zzz"):
            hi = _prefix_upper_bound(lo)
            assert index.list_range(lo, hi) == ref.list_range(lo, hi)
            assert index.count_range(lo, hi) == ref.count_range(lo, hi)

    def test_chunks_stay_bounded_under_churn(self):
        """No sublist may outgrow 2*load — the bounded-memmove claim."""
        load = 16
        index = OrderedKeyIndex(load=load)
        rng = random.Random(7)
        live: list[str] = []
        for _ in range(5000):
            if rng.random() < 0.6 or not live:
                key = f"{rng.randrange(10**6):07d}"
                if key not in index:
                    index.add(key)
                    live.append(key)
            else:
                key = live.pop(rng.randrange(len(live)))
                index.remove(key)
            assert all(len(sub) <= 2 * load for sub in index._lists)
            assert all(sub for sub in index._lists)  # no empty chunks
            assert [sub[-1] for sub in index._lists] == index._maxes

    def test_membership_and_errors(self):
        index = OrderedKeyIndex(load=4)
        for key in ("a", "b", "c"):
            index.add(key)
        assert "b" in index and "bb" not in index and "z" not in index
        with pytest.raises(KeyError):
            index.remove("zzz")  # above every chunk max
        with pytest.raises(KeyError):
            index.remove("ab")  # inside range, absent
        assert list(index) == ["a", "b", "c"]

    def test_empty_index_queries(self):
        index = OrderedKeyIndex()
        assert list(index) == []
        assert len(index) == 0
        assert "x" not in index
        assert index.list_range("", None) == []
        assert index.count_range("a", "b") == 0


class TestRegisteredPrefixCounters:
    def test_register_then_put_then_count(self):
        store = make_store()
        store._do_put("r/a", 0)
        assert store.register_prefix("r/") == 1
        store._do_put("r/b", 0)
        store._do_put("s/other", 0)
        assert store._count_prefix("r/") == 2
        # Counter answer must agree with the bisect answer.
        assert store._count_prefix("r/") == len(store._do_list("r/"))

    def test_interleaved_deletes_keep_counter_live(self):
        store = make_store()
        store.register_prefix("x/")
        for i in range(5):
            store._do_put(f"x/{i}", i)
        store._do_delete("x/1")
        store.discard("x/3")
        store._do_put("x/1", "again")
        assert store._count_prefix("x/") == 4
        assert store._count_prefix("x/") == len(store._do_list("x/"))

    def test_nested_prefixes_both_counted(self):
        store = make_store()
        store.register_prefix("a/")
        store.register_prefix("a/b/")
        store._do_put("a/b/1", 0)
        store._do_put("a/c/1", 0)
        assert store._count_prefix("a/") == 2
        assert store._count_prefix("a/b/") == 1
        assert list(store.matching_registered_prefixes("a/b/1")) == ["a/", "a/b/"]

    def test_register_idempotent_and_unregister_falls_back(self):
        store = make_store()
        store._do_put("p/1", 0)
        assert store.register_prefix("p/") == 1
        assert store.register_prefix("p/") == 1  # idempotent re-register
        store.unregister_prefix("p/")
        store.unregister_prefix("p/")  # idempotent removal
        store._do_put("p/2", 0)
        assert store._count_prefix("p/") == 2  # bisect fallback agrees


class _CountingStr(str):
    """A key that counts how many times it is sliced."""

    slices = 0

    def __getitem__(self, item):
        self.slices += 1
        return str.__getitem__(self, item)


def _scan_matches(registered, key: str) -> list[str]:
    """Reference: the per-character scan the length index replaced."""
    return [key[:i] for i in range(len(key) + 1) if key[:i] in registered]


class TestRegisteredPrefixLengths:
    """`matching_registered_prefixes` probes once per registered *length*."""

    def check(self, store: ObjectStore, probes) -> None:
        live = list(store._objects)
        registered = store._prefix_counts
        for prefix, count in registered.items():
            assert count == sum(k.startswith(prefix) for k in live), prefix
        assert store._prefix_lens == tuple(sorted({len(p) for p in registered}))
        assert sum(store._prefix_len_refs.values()) == len(registered)
        for key in [*live, *probes]:
            assert store.matching_registered_prefixes(key) == _scan_matches(registered, key)
        for prefix in [*registered, *probes]:  # live counter and bisect fallback
            assert store._count_prefix(prefix) == sum(k.startswith(prefix) for k in live)

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_against_per_character_scan(self, seed):
        rng = random.Random(seed)
        alphabet = "ab/é日" + chr(0x10FFFF)

        def word(longest):
            return "".join(rng.choice(alphabet) for _ in range(rng.randrange(longest + 1)))

        store = make_store()
        for _ in range(400):
            op = rng.randrange(5)
            if op == 0:
                store.register_prefix(word(3))  # "" included; often already there
            elif op == 1 and store._prefix_counts:
                store.unregister_prefix(rng.choice(sorted(store._prefix_counts)))
            elif op == 2:
                store.unregister_prefix(word(3))  # mostly not registered: a no-op
            elif op == 3 and store._objects:
                store.discard(rng.choice(sorted(store._objects)))
            else:
                store._do_put(word(5), 0)
            self.check(store, [word(5) for _ in range(4)])

    def test_named_cases(self):
        store = make_store()
        for key in ("a/b/1", "a/b", "a", "日本/x"):
            store._do_put(key, 0)
        for prefix in ("", "a/", "a/b", "a/b/", "x/", "日本/", "a/b/1/longer"):
            store.register_prefix(prefix)
        assert store._prefix_lens == (0, 2, 3, 4, 12)  # "a/" and "x/" share a length
        assert store._prefix_len_refs[2] == 2
        # Nested prefixes of three lengths, plus the empty one; "a/b" equals a key.
        assert store.matching_registered_prefixes("a/b/1") == ["", "a/", "a/b", "a/b/"]
        assert store.matching_registered_prefixes("a/b") == ["", "a/", "a/b"]
        # A registered prefix longer than the key never matches it.
        assert store.matching_registered_prefixes("a") == [""]
        assert store.matching_registered_prefixes("日本/x") == ["", "日本/"]
        self.check(store, ["a/b/1/longer", "a/b/1/longer/still", "x/", "x"])
        store.unregister_prefix("a/")
        assert store._prefix_lens == (0, 2, 3, 4, 12)  # "x/" still holds length 2
        # "x/" counts zero live keys: popping it must still release its length.
        assert store._prefix_counts["x/"] == 0
        store.unregister_prefix("x/")
        assert store._prefix_lens == (0, 3, 4, 12)
        assert store.matching_registered_prefixes("a/b/1") == ["", "a/b", "a/b/"]
        for prefix in list(store._prefix_counts):
            store.unregister_prefix(prefix)
        assert store._prefix_lens == () and not store._prefix_len_refs
        assert store.matching_registered_prefixes("a/b/1") == []

    def test_cost_is_one_probe_per_registered_length(self):
        store = make_store()
        store.register_prefix("r/0001/")
        key = _CountingStr("r/0001/" + "x" * 9993)
        assert len(key) == 10_000
        assert store.matching_registered_prefixes(key) == ["r/0001/"]
        assert key.slices == 1
        store.register_prefix("r/0002/")  # same length: still one probe
        store.register_prefix("r/")
        store.register_prefix("y" * 20_000)  # longer than the key: not probed
        key.slices = 0
        assert store.matching_registered_prefixes(key) == ["r/", "r/0001/"]
        assert key.slices == 2


class TestEngineWaitersWithDeletes:
    def test_count_waiter_sees_interleaved_deletes(self):
        """A deleted contribution must keep the waiter blocked."""
        engine = Engine()
        store = S3Store()
        woken_at = {}

        def writer():
            yield Put(store, "w/0", 0)
            yield Put(store, "w/1", 1)
            # Zero-time removal between puts: count goes 2 -> 1.
            store.discard("w/1")
            yield Put(store, "w/2", 2)
            yield Put(store, "w/3", 3)

        def waiter():
            yield WaitKeyCount(store, "w/", 3, poll_interval=0.01)
            woken_at["t"] = engine.now

        engine.spawn(writer(), "writer")
        engine.spawn(waiter(), "waiter")
        engine.run()
        # Third *surviving* key is w/3, visible only at the fourth put.
        assert woken_at["t"] >= 4 * store.profile.latency_s

    def test_exact_key_wakeups_leave_other_waiters_blocked(self):
        from repro.errors import DeadlockError
        from repro.simulation.commands import WaitKey

        engine = Engine()
        store = S3Store()

        def writer():
            yield Put(store, "present", 1)

        def waiter():
            yield WaitKey(store, "never", poll_interval=0.01)

        engine.spawn(writer(), "writer")
        engine.spawn(waiter(), "stuck")
        with pytest.raises(DeadlockError, match="waiting on storage"):
            engine.run()


class TestServiceQueueHeap:
    def test_matches_linear_reference(self):
        """Float-heap booking must match the linear argmin reference.

        The queue no longer tracks slot indices at all — only the
        multiset of free times — so this checks the observational
        claim directly: (start, completion) and busy_until equal the
        per-slot reference at every step.
        """
        rng = np.random.default_rng(11)
        for slots in (1, 3, 8):
            q = ServiceQueue(slots)
            free_at = [0.0] * slots  # reference implementation
            for _ in range(300):
                arrival = float(rng.uniform(0, 50))
                duration = float(rng.uniform(0.01, 5))
                idx = min(range(slots), key=lambda i: free_at[i])
                start = max(arrival, free_at[idx])
                free_at[idx] = start + duration
                assert q.schedule(arrival, duration) == (start, start + duration)
                assert q.busy_until == max(free_at)


class TestBatchedPollBilling:
    def test_batched_polls_equal_per_call_billing(self):
        batched, looped = CostMeter(), CostMeter()
        store_batched = S3Store(meter=batched)
        store_batched.record_polls(1237)
        for _ in range(1237):
            looped.bill_s3_request("list")
        assert batched.dollars["s3"] == looped.dollars["s3"]  # bit-identical
        assert batched.counters["s3_list"] == looped.counters["s3_list"] == 1237

    def test_dynamodb_batched_counts(self):
        meter = CostMeter()
        meter.bill_dynamodb_request("get", 0, count=10)
        reference = CostMeter()
        for _ in range(10):
            reference.bill_dynamodb_request("get", 0)
        assert meter.dollars["dynamodb"] == reference.dollars["dynamodb"]
        assert meter.counters["dynamodb_get"] == 10

    def test_hundred_thousand_polls_on_each_billed_store(self):
        polls = 100_000
        for store_cls, component, counter in (
            (S3Store, "s3", "s3_list"),
            (DynamoDBStore, "dynamodb", "dynamodb_list"),
        ):
            batched, looped = CostMeter(), CostMeter()
            store_cls(meter=batched).record_polls(polls)
            per_poll = store_cls(meter=looped)
            for _ in range(polls):
                per_poll.record_polls(1)
            assert batched.dollars[component].hex() == looped.dollars[component].hex()
            assert batched.counters[counter] == looped.counters[counter] == polls

    @pytest.mark.parametrize("op,nbytes", [("get", 0), ("get", 100_000), ("put", 3_000)])
    def test_dynamodb_batches_of_multi_unit_items(self, op, nbytes):
        batched, looped = CostMeter(), CostMeter()
        batched.bill_dynamodb_request("put", 1)  # not starting from 0.0
        looped.bill_dynamodb_request("put", 1)
        batched.bill_dynamodb_request(op, nbytes, count=100_000)
        for _ in range(100_000):
            looped.bill_dynamodb_request(op, nbytes)
        assert batched.dollars["dynamodb"].hex() == looped.dollars["dynamodb"].hex()
        assert batched.counters == looped.counters

    def test_interleaved_put_and_get_price_batches_on_one_meter(self):
        rng = random.Random(13)
        batched, looped = CostMeter(), CostMeter()
        for _ in range(40):
            op = rng.choice(("list", "put", "get", "delete"))
            count = rng.choice((1, 2, 3, rng.randint(4, 5000)))
            batched.bill_s3_request(op, count)
            for _ in range(count):
                looped.bill_s3_request(op)
            assert batched.dollars["s3"].hex() == looped.dollars["s3"].hex()
        assert batched.counters == looped.counters


class TestPayloadFastPath:
    def test_fast_and_general_agree(self):
        samples = [
            SizedPayload(np.zeros(2), 12345),
            np.zeros(7, dtype=np.float32),
            b"abc",
            bytearray(b"abcd"),
            "héllo",
            7,
            3.5,
            True,
            None,
            {"key": np.zeros(4), "n": 1},
            [1, "two", b"three"],
            (1.0, 2.0),
            {9, 10},
            np.float64(2.5),  # float subclass -> slow path
            object(),  # unknown -> 64
        ]
        from repro.utils.serialization import _payload_nbytes_general

        for obj in samples:
            assert payload_nbytes(obj) == _payload_nbytes_general(obj)

    def test_hot_key_memoized_size_is_stable(self):
        assert payload_nbytes("ar/r0/merged") == payload_nbytes("ar/r0/merged")
        assert payload_nbytes("é") == 2


class TestRoundFileGC:
    @pytest.mark.parametrize("pattern_name", ["allreduce", "scatterreduce"])
    def test_rounds_do_not_accumulate_objects(self, pattern_name):
        from repro.comm.patterns import PATTERNS, allreduce, scatter_reduce

        pattern = allreduce if pattern_name == "allreduce" else scatter_reduce
        assert PATTERNS[
            "allreduce" if pattern_name == "allreduce" else "scatterreduce"
        ] is pattern
        engine = Engine()
        store = S3Store()
        store.available_at = 0.0
        workers, rounds = 4, 3
        vector = np.ones(16)

        def worker(rank):
            for r in range(rounds):
                merged = yield from pattern(
                    store, rank, workers, f"r{r}", vector, 1024
                )
                assert merged is not None

        for rank in range(workers):
            engine.spawn(worker(rank), f"w{rank}")
        engine.run()
        leftovers = store._do_list("")
        assert leftovers == [], f"leaked round files: {leftovers}"

    def test_retried_round_survives_aborted_reader(self):
        """A re-run round id must not inherit stale last-reader counts.

        One worker dies mid-gather (after some of its Gets already
        decremented counters); the whole round is retried with the same
        round id on the same store. Producer-armed counters reset on
        the retry's puts, so no live reader loses a file early.
        """
        from repro.comm.patterns import scatter_reduce

        store = S3Store()
        store.available_at = 0.0
        workers = 3
        vector = np.ones(9)

        def attempt(engine, rank):
            merged = yield from scatter_reduce(
                store, rank, workers, "r0", vector, 512
            )
            assert merged.shape == vector.shape

        first = Engine()
        procs = [first.spawn(attempt(first, r), f"w{r}") for r in range(workers)]
        # Kill worker 2 mid-run: depending on timing it may already
        # have decremented some merged_* counters.
        first.run(until=0.6)
        first.kill(procs[2])
        for proc in procs[:2]:
            if proc.alive:
                first.kill(proc)

        retry = Engine()
        for rank in range(workers):
            retry.spawn(attempt(retry, rank), f"retry-w{rank}")
        retry.run()  # must not raise KeyNotFoundError
        assert store._do_list("sr/") == []

    def test_single_worker_allreduce_leaves_nothing(self):
        from repro.comm.patterns import allreduce

        engine = Engine()
        store = S3Store()
        store.available_at = 0.0

        def solo():
            merged = yield from allreduce(store, 0, 1, "r0", np.ones(4), 64)
            assert merged is not None

        engine.spawn(solo(), "solo")
        engine.run()
        assert store._do_list("") == []
