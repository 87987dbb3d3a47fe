"""Unit tests for the storage data-plane index and batched billing.

Covers the chunked ordered key index (:mod:`repro.storage.
ordered_index`) directly — randomized cross-checks against a flat
sorted-list model of its own spec plus adversarial key sequences — and
through :mod:`repro.storage.base`'s wait index (watched-prefix live
counters, the smallest-target invariant, wake order; seeded worlds and
range discards against the reference store of ``tests/reference``), the
float-heap slot picker in :mod:`repro.simulation.resources`, the batched
poll billing, the refusal of unsized payloads, and the communication
patterns' round-file garbage collection.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort

import numpy as np
import pytest

from reference.harness import (
    ProcSpec,
    SeededPick,
    StoreSpec,
    World,
    assert_same_world,
    build_world,
    cancelled_waiter_world,
)
from reference.store import RefQueue
from repro.errors import SimulationError
from repro.pricing.meter import CostMeter
from repro.simulation.commands import Put, Sleep, WaitKeyCount
from repro.simulation.engine import Engine, ProcessState
from repro.simulation.resources import ServiceQueue
from repro.storage.base import ObjectStore, StorageProfile, _prefix_upper_bound
from repro.storage.ordered_index import OrderedKeyIndex
from repro.storage.services import DynamoDBStore, S3Store
from repro.utils.serialization import SizedPayload


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
        assert store._do_get("k") == 2

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
        store.seed_object("data/part_0", SizedPayload("x", 1))
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

    def remove_range(self, lo, hi):
        removed = self.list_range(lo, hi)
        start = bisect_left(self.keys, lo)
        del self.keys[start:start + len(removed)]
        return removed


class _CountingMerges(OrderedKeyIndex):
    """The chunked index, counting how often a cut sublist asks to merge."""

    merges = 0

    def _merge(self, pos):
        self.merges += 1
        super()._merge(pos)


def _assert_well_formed(index: OrderedKeyIndex) -> None:
    assert all(index._lists)  # no empty chunks
    assert [sub[-1] for sub in index._lists] == index._maxes
    assert all(len(sub) <= 2 * index._load for sub in index._lists)
    assert all(sub == sorted(sub) for sub in index._lists)
    assert len(index) == sum(map(len, index._lists))


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

    @pytest.mark.parametrize("load", [4, 16, 32])
    def test_remove_range_randomized_against_reference(self, load):
        """Ranges spanning several sublists, emptying whole ones, cutting both ends."""
        rng = random.Random(20210620 + load)
        index, ref = _CountingMerges(load=load), _ReferenceModel()
        for _ in range(300):
            for _ in range(rng.randrange(40)):
                key = f"{rng.randrange(20):02d}/{rng.randrange(100):03d}"
                if key not in index:
                    index.add(key)
                    ref.add(key)
            roll = rng.random()
            if roll < 0.5:  # a prefix range, like the store's
                lo = f"{rng.randrange(20):02d}"[: rng.randrange(3)]
                hi = _prefix_upper_bound(lo)
            elif roll < 0.7 or not ref.keys:  # open-ended
                lo, hi = f"{rng.randrange(20):02d}", None
            elif roll < 0.9:  # between two stored keys, either order
                lo, hi = sorted((rng.choice(ref.keys), rng.choice(ref.keys)))
            else:  # empty or inverted
                lo = rng.choice(ref.keys)
                hi = lo if rng.random() < 0.5 else lo[:-1]
            assert index.remove_range(lo, hi) == ref.remove_range(lo, hi)
            assert list(index) == ref.keys
            _assert_well_formed(index)
            assert index.count_range("", None) == len(ref.keys)
        if load >= 16:  # load // 8 >= 2: a cut end can come out underfull
            assert index.merges > 0

    @pytest.mark.parametrize(
        "lo,hi",
        [
            ("", None),  # everything
            ("", "k00000"),  # before the first key: nothing
            ("k00040", "k00040"),  # empty range on a stored key
            ("z", None),  # after the last key: nothing
            ("", "k00002"),  # the head of the first chunk
            ("", "k00006"),  # the first chunk whole, the head of the second
            ("k00093", None),  # the tail of the last chunk
            ("k00010", "k00050"),  # whole chunks between two cut ends
            ("k00012", "k00014"),  # inside one chunk
            ("k00008", "k00016"),  # two whole chunks, no cut end
        ],
    )
    def test_remove_range_named_cases(self, lo, hi):
        keys = [f"k{i:05d}" for i in range(100)]
        # Ascending inserts at load 4 leave chunks k00000-03, k00004-07, ...
        index, ref = OrderedKeyIndex(load=4), _ReferenceModel()
        for key in keys:
            index.add(key)
            ref.add(key)
        assert index.remove_range(lo, hi) == ref.remove_range(lo, hi)
        assert list(index) == ref.keys
        _assert_well_formed(index)
        for key in ("k00000", "k00099", "k00050"):  # still a usable index
            if key not in index:
                index.add(key)
                ref.add(key)
        assert list(index) == ref.keys
        _assert_well_formed(index)

    def test_remove_range_on_an_empty_index(self):
        index = OrderedKeyIndex(load=4)
        assert index.remove_range("", None) == []
        assert index.remove_range("a", "b") == []
        assert len(index) == 0

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


def watch(store: ObjectStore, prefix: str, needed: int = 10**9, wake=None):
    """Block a fresh stand-in process on `prefix`; returns the process."""
    proc = object()
    assert store.wait_for_count(prefix, needed, wake or (lambda at: None), proc)
    return proc


class TestRegisteredPrefixCounters:
    """A watched prefix (one that has a waiter) keeps a live count."""

    def test_register_then_put_then_count(self):
        store = make_store()
        store._do_put("r/a", 0)
        watch(store, "r/")
        assert store._watched["r/"][0] == 1
        store._do_put("r/b", 0)
        store._do_put("s/other", 0)
        assert store._count_prefix("r/") == 2
        # Counter answer must agree with the bisect answer.
        assert store._count_prefix("r/") == len(store._do_list("r/"))

    def test_interleaved_deletes_keep_counter_live(self):
        store = make_store()
        watch(store, "x/")
        for i in range(5):
            store._do_put(f"x/{i}", i)
        store._do_delete("x/1")
        store.discard("x/3")
        store._do_put("x/1", "again")
        assert store._count_prefix("x/") == 4
        assert store._count_prefix("x/") == len(store._do_list("x/"))

    def test_nested_prefixes_both_counted(self):
        store = make_store()
        watch(store, "a/")
        watch(store, "a/b/")
        store._do_put("a/b/1", 0)
        store._do_put("a/c/1", 0)
        assert store._count_prefix("a/") == 2
        assert store._count_prefix("a/b/") == 1
        assert {p: r[0] for p, r in store._watched.items()} == {"a/": 2, "a/b/": 1}

    def test_register_idempotent_and_unregister_falls_back(self):
        store = make_store()
        store._do_put("p/1", 0)
        first = watch(store, "p/")
        second = watch(store, "p/")  # a second waiter shares the one record
        assert store._watched["p/"][0] == 1 and store._prefix_len_refs == {2: 1}
        store.cancel_wait("p/", first)
        assert "p/" in store._watched  # still waited on, still watched
        store.cancel_wait("p/", second)
        assert not store._watched and not store._prefix_len_refs
        store._do_put("p/2", 0)
        assert store._count_prefix("p/") == 2  # bisect fallback agrees


class _CountingStr(str):
    """A key that counts how many times it is sliced."""

    slices = 0

    def __getitem__(self, item):
        self.slices += 1
        return str.__getitem__(self, item)


ALPHABET = "ab/é日" + chr(0x10FFFF)


def _word(rng: random.Random, longest: int) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(longest + 1)))


class TestRegisteredPrefixLengths:
    """A key is probed once per watched prefix *length*; the counters stay exact.

    Every live count is checked against a scan of every key.
    """

    def check(self, store: ObjectStore, probes) -> None:
        live = list(store._objects)
        watched = store._watched
        for prefix, (count, waiters, _) in watched.items():
            assert waiters, prefix  # watched iff waited on
            assert count == sum(k.startswith(prefix) for k in live), prefix
        assert store._prefix_lens == tuple(sorted({len(p) for p in watched}))
        assert sum(store._prefix_len_refs.values()) == len(watched)
        for prefix in [*watched, *probes]:  # live counter and bisect fallback
            assert store._count_prefix(prefix) == sum(k.startswith(prefix) for k in live)

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_against_per_character_scan(self, seed):
        rng = random.Random(seed)
        store = make_store()
        blocked: list[tuple[str, object]] = []
        for _ in range(400):
            op = rng.randrange(5)
            if op == 0:
                prefix = _word(rng, 3)  # "" included; often already watched
                blocked.append((prefix, watch(store, prefix)))
            elif op == 1 and blocked:
                prefix, proc = blocked.pop(rng.randrange(len(blocked)))
                store.cancel_wait(prefix, proc)
            elif op == 2 and store._objects:
                store._do_put(rng.choice(sorted(store._objects)), 1)  # overwrite: a no-op
            elif op == 3 and store._objects:
                store.discard(rng.choice(sorted(store._objects)))
            else:
                store._do_put(_word(rng, 5), 0)
            self.check(store, [_word(rng, 5) for _ in range(4)])

    def test_named_cases(self):
        store = make_store()
        for key in ("a/b/1", "a/b", "a", "日本/x"):
            store._do_put(key, 0)
        procs = {
            prefix: watch(store, prefix)
            for prefix in ("", "a/", "a/b", "a/b/", "x/", "日本/", "a/b/1/longer")
        }
        assert store._prefix_lens == (0, 2, 3, 4, 12)  # "a/" and "x/" share a length
        assert store._prefix_len_refs[2] == 2
        # Nested prefixes of three lengths, plus the empty one; "a/b" equals
        # a key; a watched prefix longer than a key never counts it.
        counts = {p: r[0] for p, r in store._watched.items()}
        assert counts == {"": 4, "a/": 2, "a/b": 2, "a/b/": 1, "x/": 0, "日本/": 1,
                          "a/b/1/longer": 0}
        self.check(store, ["a/b/1/longer", "a/b/1/longer/still", "x/", "x"])
        store.cancel_wait("a/", procs.pop("a/"))
        assert store._prefix_lens == (0, 2, 3, 4, 12)  # "x/" still holds length 2
        # "x/" counts zero live keys: dropping it must still release its length.
        assert store._watched["x/"][0] == 0
        store.cancel_wait("x/", procs.pop("x/"))
        assert store._prefix_lens == (0, 3, 4, 12)
        store._do_put("a/b/2", 0)
        self.check(store, ["a/"])
        for prefix, proc in procs.items():
            store.cancel_wait(prefix, proc)
        assert store._prefix_lens == () and not store._prefix_len_refs

    def test_cost_is_one_probe_per_registered_length(self):
        store = make_store()
        watch(store, "r/0001/")
        key = _CountingStr("r/0001/" + "x" * 9993)
        assert len(key) == 10_000
        store._do_put(key, 0)
        assert key.slices == 1
        assert store._watched["r/0001/"][0] == 1
        watch(store, "r/0002/")  # same length: still one probe
        watch(store, "r/")
        watch(store, "y" * 20_000)  # longer than the key: not probed
        key = _CountingStr("r/0001/" + "z" * 9993)
        store._do_put(key, 0)
        assert key.slices == 2
        assert store._watched["r/"][0] == 2 and store._watched["r/0001/"][0] == 2


class TestWaitIndexAgainstOracle:
    """The store's one wait index vs the reference store, and its own invariants."""

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_random_mixes(self, seed):
        """Many one-wait workers; puts, range discards and kills in between."""
        _, ref = assert_same_world(build_world(
            SeededPick(f"mix:{seed}"), fault=None, workers=(30, 40), ops=(6, 10), fragile=False,
            watch=True, menu=("put", "put_each", "wait_key", "wait_count", "discard_prefix",
                              "sleep")))
        assert {"wait_on_a_key", "WaitKeyCount"} <= ref.features
        assert sum(store.woken for store in ref.stores) > 15

    @pytest.mark.parametrize("seed", range(4))
    def test_smallest_target_is_exact(self, seed):
        """A record's third field is its waiters' smallest target, always.

        It is what lets a put skip a watched prefix without looking at
        its waiters: too large and a satisfied waiter sleeps on, too
        small and every put scans.
        """
        rng = random.Random(seed)
        store, blocked = make_store(), []
        for proc in range(600):
            op = rng.randrange(5)
            if op == 0:
                prefix = _word(rng, 2)
                needed = store._count_prefix(prefix) + rng.randrange(1, 5)
                assert store.wait_for_count(prefix, needed, lambda at: None, proc)
                blocked.append((prefix, proc))
            elif op == 1 and blocked:
                prefix, victim = blocked.pop(rng.randrange(len(blocked)))
                store.cancel_wait(prefix, victim)
            elif op == 2 and store._objects:
                store.discard_prefix(rng.choice(sorted(store._objects))[:2])
            else:
                store._do_put(_word(rng, 4), 0)
                live = {p for _, _, _, p in (w for r in store._watched.values() for w in r[1])}
                blocked = [(prefix, p) for prefix, p in blocked if p in live]
            for prefix, (count, waiters, smallest) in store._watched.items():
                assert smallest == min(needed for needed, *_ in waiters), prefix
                assert count < smallest  # nobody left waiting is satisfied

    def test_wake_order_is_registration_order(self):
        store = make_store()
        order: list[str] = []
        for name, prefix in (("long", "a/b/"), ("short", "a/"), ("key", "a/b/1"),
                             ("long2", "a/b/")):
            store.wait_for_count(prefix, 1, lambda at, n=name: order.append(n), name)
        store.wait_for_count("", 2, lambda at: order.append("later"), "later")
        for wake in store._do_put("a/b/1", 0):
            wake(0.0)
        # Registration order across prefixes, not prefix-by-prefix: the
        # wait on the full key is no different from the others.
        assert order == ["long", "short", "key", "long2"]
        assert list(store._watched) == [""] and store._prefix_lens == (0,)


def _round_keys() -> list[str]:
    """Round files of three rounds, both patterns, plus keys that are not."""
    keys = [
        f"sr/{r:08d}/for_{a:05d}/from_{b:05d}"
        for r in range(3) for a in range(4) for b in range(4) if a != b
    ]
    keys += [f"sr/{r:08d}/merged_{a:05d}" for r in range(3) for a in range(4)]
    keys += [f"ar/{r:08d}/part_{a:05d}" for r in range(3) for a in range(5)]
    keys += [f"ar/{r:08d}-loss/part_{a:05d}" for r in range(3) for a in range(2)]
    keys += ["ar/00000001x", "data/part_0", "s", "sr", "sr/00000001"]
    return keys


# Watched prefixes shorter than, equal to (and beside) and longer than the
# discarded "sr/00000001/for_00002/", plus unrelated ones.
_WATCHED = (
    "", "s", "sr/", "sr/00000001/", "sr/00000001/for_00002/", "sr/00000001/for_00003/",
    "sr/00000001/for_00002/from_0000", "sr/00000001/for_00002/from_00001",
    "sr/00000001/for_00002/from_00001/longer", "ar/", "data/",
)


# Puts after the discard: each may satisfy a waiter of the world below.
_LATER = ("sr/00000001/for_00002/late", "sr/00000001/for_00002/from_00001",
          "sr/00000001/for_00002/from_00003", "sr/00000002/for_00002/x",
          "ar/00000001/part_00000", "data/part_1", "s/1", "t")


def _discard_world(retention_floor, *ops) -> World:
    """Round files, a waiter on every watched prefix and on one key; `ops` then `_LATER`."""
    keys = _round_keys()
    waiters = [
        ProcSpec(f"count{i}", (("wait_count", 0, prefix,
                                sum(k.startswith(prefix) for k in keys) + 1 + i % 3, 0.01),))
        for i, prefix in enumerate(_WATCHED)
    ]
    waiters.append(ProcSpec("key", (("wait_key", 0, "sr/00000001/for_00002/late", 0.01),)))
    driver = ProcSpec("driver", (*ops, *(("put", 0, key, 8) for key in _LATER)))
    return World([StoreSpec("s3", retention=retention_floor)], [*waiters, driver],
                 seeds=[(0, key, 8) for key in keys])


class TestDiscardPrefix:
    """One range delete vs the reference store's key-by-key discard."""

    @pytest.mark.parametrize(
        "prefix",
        ["sr/00000001/for_00002/", "sr/00000001/for_00002/from_00001", "sr/00000001/",
         "sr/", "ar/00000001", "s", "", "zz/", "sr/00000001/for_00002/from_00001/x"],
    )
    @pytest.mark.parametrize("retention_floor", [None, 0, 2])
    def test_matches_the_per_key_loop(self, prefix, retention_floor):
        real, _ = assert_same_world(
            _discard_world(retention_floor, ("discard_prefix", 0, prefix)))
        if retention_floor == 0:  # every round file is retained, and so is the rest
            assert set(_round_keys()) <= set(real.stores[0]._objects)
        # The later puts did satisfy waiters.
        assert any(p[1] == "done" for p in real.outcome["processes"] if p[0] != "driver")

    @pytest.mark.parametrize("start,floor", [(0, 1), (0, 3), (1, 2), (2, 2), (2, 1)])
    def test_retention_advance_deletes_what_the_old_walk_did(self, start, floor):
        real, _ = assert_same_world(_discard_world(start, ("advance", 0, floor)))
        [removed] = [entry[3] for entry in real.outcome["log"] if entry[2] == "advance"]
        assert removed == sum(
            key.startswith(f"{kind}/{r:08d}")
            for key in _round_keys() for kind in ("ar", "sr") for r in range(start, floor)
        )
        retention = real.stores[0].retention
        assert retention.floor == max(start, floor)  # (2, 1): the floor never moves down
        assert retention.collected == removed


class TestCancelledCountWaiter:
    """Killing one of several count waiters on a prefix keeps the others' targets."""

    def test_each_survivor_wakes_on_its_own_put(self):
        real, _ = assert_same_world(cancelled_waiter_world())
        states = {name: (state, end) for name, state, _, _, _, end, _ in real.outcome["processes"]}
        assert states["g3"][0] == "killed"
        assert states["g1"][0] == states["g2"][0] == "done"
        # The writer's second put is issued after t = 1.05: only g2 waits for it.
        assert float.fromhex(states["g1"][1]) < 1.05 < float.fromhex(states["g2"][1])


class TestOnlyANewKeySatisfiesWaiters:
    """The stated property behind the single notify path."""

    def test_seed_object_is_counted_but_wakes_nobody(self):
        engine = Engine()
        store = S3Store()
        store.available_at = 0.0
        seen = {}

        def waiter():
            yield WaitKeyCount(store, "in/", 2, poll_interval=0.01)
            return engine.now

        def stager():
            yield Sleep(1.0)
            store.seed_object("in/0", SizedPayload(b"x", 1))
            store.seed_object("in/1", SizedPayload(b"x", 1))
            seen["count"] = store._watched["in/"][0]  # counted by the watched prefix...
            yield Sleep(1.0)
            seen["after_seed"] = proc._pending_wait  # ...but nobody was notified
            yield Put(store, "in/0", SizedPayload(b"y", 1))  # an overwrite releases nobody either
            seen["after_overwrite"] = proc._pending_wait
            seen["put_at"] = engine.now
            yield Put(store, "in/2", SizedPayload(b"z", 1))  # the next new key under the prefix does

        proc = engine.spawn(waiter(), "waiter")
        engine.spawn(stager(), "stager")
        engine.run()
        assert seen["count"] == 2
        assert seen["after_seed"] == seen["after_overwrite"] == (store, "in/")
        assert proc.result > seen["put_at"] > 2.0
        assert not store._watched and not store._prefix_lens

    def test_seeded_key_does_not_wake_its_exact_key_waiter(self):
        from repro.errors import DeadlockError

        engine = Engine()
        store = S3Store()

        def waiter():
            yield WaitKeyCount(store, "late", 1, poll_interval=0.01)

        def stager():
            yield Sleep(1.0)
            store.seed_object("late", SizedPayload(b"x", 1))

        engine.spawn(waiter(), "waiter")
        engine.spawn(stager(), "stager")
        with pytest.raises(DeadlockError, match="1 waiting on storage"):
            engine.run()
        assert list(store._watched) == ["late"]


def test_no_module_keys_a_table_by_store():
    """No `id(...)` call and no WeakKeyDictionary in the simulator's core.

    A store owns its waiters and its reader counts; nothing under
    simulation/, comm/ or storage/ may keep state keyed by an object.
    """
    import ast
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    offenders = []
    for package in ("simulation", "comm", "storage"):
        for path in sorted((src / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "id":
                    offenders.append(f"{path.name}:{node.lineno} id()")
                names = [getattr(node, field, None) for field in ("id", "attr", "name")]
                if "WeakKeyDictionary" in names:  # a Name, an Attribute or an import alias
                    offenders.append(f"{path.name}:{node.lineno} WeakKeyDictionary")
    assert offenders == []


class TestEngineWaitersWithDeletes:
    def test_count_waiter_sees_interleaved_deletes(self):
        """A deleted contribution must keep the waiter blocked."""
        engine = Engine()
        store = S3Store()
        woken_at = {}

        def writer():
            yield Put(store, "w/0", SizedPayload(0, 8))
            yield Put(store, "w/1", SizedPayload(1, 8))
            # Zero-time removal between puts: count goes 2 -> 1.
            store.discard("w/1")
            yield Put(store, "w/2", SizedPayload(2, 8))
            yield Put(store, "w/3", SizedPayload(3, 8))

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

        engine = Engine()
        store = S3Store()

        def writer():
            yield Put(store, "present", SizedPayload(1, 8))

        def waiter():
            yield WaitKeyCount(store, "never", 1, poll_interval=0.01)

        engine.spawn(writer(), "writer")
        engine.spawn(waiter(), "stuck")
        with pytest.raises(DeadlockError, match="waiting on storage"):
            engine.run()


class TestServiceQueueHeap:
    def test_matches_linear_reference(self):
        """Float-heap booking must match the reference's linear-min queue.

        The queue no longer tracks slot indices at all — only the
        multiset of free times — so this checks the observational
        claim directly: (start, completion) and busy_until equal the
        per-slot reference at every step.
        """
        rng = np.random.default_rng(11)
        for slots in (1, 3, 8):
            q, ref = ServiceQueue(slots), RefQueue(slots)
            for _ in range(300):
                arrival = float(rng.uniform(0, 50))
                duration = float(rng.uniform(0.01, 5))
                assert q.schedule(arrival, duration) == ref.book(arrival, duration)
                assert q.busy_until == max(ref.free)


class TestBatchedPollBilling:
    def test_batched_polls_equal_per_call_billing(self):
        batched, looped = CostMeter(), CostMeter()
        store_batched = S3Store(meter=batched)
        store_batched.record_polls(1237)
        for _ in range(1237):
            looped.bill_request(looped.s3_request_prices()["list"])
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
            op = rng.choice(("list", "put", "get"))
            count = rng.choice((1, 2, 3, rng.randint(4, 5000)))
            entry = batched.s3_request_prices()[op]
            batched.bill_request(entry, count)
            for _ in range(count):
                looped.bill_request(entry)
            assert batched.dollars["s3"].hex() == looped.dollars["s3"].hex()
        assert batched.counters == looped.counters


class TestPayloadFastPath:
    """No value is sized by its type: a put or a seed states its byte count."""

    UNSIZED = [
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
        np.float64(2.5),
        object(),
    ]

    def test_fast_and_general_agree(self):
        # A value of any type, numpy scalars and containers included, is
        # refused by a put and by seed_object alike and leaves the store as
        # it was.
        for value in self.UNSIZED:
            engine, store = Engine(), make_store()

            def writer(value=value):
                yield Put(store, "k", value)

            engine.spawn(writer(), "writer")
            with pytest.raises(SimulationError, match="put of 'k' carries no size"):
                engine.run()
            with pytest.raises(SimulationError, match="seeded 'k' carries no size"):
                store.seed_object("k", value)
            assert engine.now == 0.0
            assert store.queue.free == [0.0] * 4
            assert store._do_list("") == [] and store._count_prefix("") == 0

    def test_hot_key_memoized_size_is_stable(self):
        # A payload's size is its nbytes, never its value's: a string value
        # books the stated 2 bytes on every round, not its UTF-8 length.
        engine, store = Engine(), make_store()
        booked = []

        def writer():
            for _ in range(3):
                booked.append((yield Put(store, "ar/r0/merged", SizedPayload("ar/r0/merged", 2))))

        engine.spawn(writer(), "writer")
        engine.run()
        assert booked == [2, 2, 2]
        assert engine.now == 3 * (2 / 1e9)


class TestRoundFileGC:
    @pytest.mark.parametrize("pattern_name", ["allreduce", "scatterreduce"])
    def test_rounds_do_not_accumulate_objects(self, pattern_name):
        from repro.comm.patterns import allreduce, scatter_reduce

        pattern = allreduce if pattern_name == "allreduce" else scatter_reduce
        engine = Engine()
        store = S3Store()
        store.available_at = 0.0
        workers, rounds = 4, 3

        def worker(rank):
            for r in range(rounds):
                yield from pattern(store, rank, workers, f"r{r}", 1024)

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

        def attempt(engine, rank):
            yield from scatter_reduce(store, rank, workers, "r0", 512)

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

        proc = engine.spawn(allreduce(store, 0, 1, "r0", 64), "solo")
        engine.run()
        assert proc.state is ProcessState.DONE
        assert store._do_list("") == []
