"""Storage-op sequences (PutEach / GetEach) against the per-op patterns.

A run of consecutive storage ops is one command: the engine steps through
it with exactly the events the single ops dispatch and resumes the
generator once, at the end. The oracle is the per-op ``allreduce`` /
``scatter_reduce`` — one ``yield Put`` / ``yield Get`` per item — kept
here and nowhere else. Both sides must agree bit for bit: the clock, the
instant each rank finishes each round, every process's time breakdown,
dollars, live keys, fault counters and the event / batch / peak-queue
counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.patterns import POLL_INTERVAL_S, _merge_seconds, allreduce, scatter_reduce
from repro.errors import (
    DeadlockError,
    KeyNotFoundError,
    SimulationError,
    TransientStorageError,
)
from repro.faults.plan import FaultPlan, StorageFaultPolicy
from repro.faults.retry import RetryPolicy
from repro.pricing.meter import CostMeter
from repro.simulation.commands import (
    Compute,
    Get,
    GetEach,
    Put,
    PutEach,
    Sleep,
    WaitKey,
    WaitKeyCount,
)
from repro.simulation.engine import Engine
from repro.storage.services import DynamoDBStore, MemcachedStore, RedisStore, S3Store
from repro.utils.serialization import SizedPayload, unwrap


# ---------------------------------------------------------------------------
# The oracle: both patterns as they were before storage-op sequences.
# ---------------------------------------------------------------------------
def oracle_allreduce(store, rank, workers, round_id, logical_nbytes,
                     poll_interval=POLL_INTERVAL_S):
    prefix = f"ar/{round_id}/part_"
    merged_key = f"ar/{round_id}/merged"
    yield Put(store, f"{prefix}{rank:05d}", SizedPayload(None, logical_nbytes))
    if rank == 0:
        yield WaitKeyCount(store, prefix, workers, poll_interval, category="merge")
        for peer in range(workers):
            yield Get(store, f"{prefix}{peer:05d}")
        yield Compute(_merge_seconds(logical_nbytes * workers), category="merge")
        yield Put(store, merged_key, SizedPayload(None, logical_nbytes))
        for peer in range(workers):
            store.discard(f"{prefix}{peer:05d}")
        if workers == 1:
            store.discard(merged_key)
        else:
            store.expect_readers(merged_key, workers - 1)
        return
    yield WaitKey(store, merged_key, poll_interval)
    yield Get(store, merged_key)
    store.discard_after_read((merged_key,))


def oracle_scatter_reduce(store, rank, workers, round_id, logical_nbytes,
                          poll_interval=POLL_INTERVAL_S):
    if workers == 1:
        return
    chunk_bytes = max(1, logical_nbytes // workers)
    ranks = [f"{peer:05d}" for peer in range(workers)]
    me = ranks[rank]
    base = f"sr/{round_id}/"
    for peer in range(workers):
        if peer == rank:
            continue
        key = f"{base}for_{ranks[peer]}/from_{me}"
        yield Put(store, key, SizedPayload(None, chunk_bytes))
    my_prefix = f"{base}for_{me}/"
    yield WaitKeyCount(store, my_prefix, workers - 1, poll_interval, category="merge")
    for peer in range(workers):
        if peer != rank:
            yield Get(store, f"{my_prefix}from_{ranks[peer]}")
    yield Compute(_merge_seconds(chunk_bytes * workers), category="merge")
    yield Put(store, f"{base}merged_{me}", SizedPayload(None, chunk_bytes))
    store.expect_readers(f"{base}merged_{me}", workers - 1)
    for peer in range(workers):
        if peer != rank:
            store.discard(f"{my_prefix}from_{ranks[peer]}")
    yield WaitKeyCount(store, f"{base}merged_", workers, poll_interval)
    for peer in range(workers):
        if peer == rank:
            continue
        key = f"{base}merged_{ranks[peer]}"
        yield Get(store, key)
        store.discard_after_read((key,))


PATTERNS = {
    "allreduce": (allreduce, oracle_allreduce),
    "scatterreduce": (scatter_reduce, oracle_scatter_reduce),
}
STORES = {
    "s3": S3Store,
    "redis": RedisStore,  # one slot: every same-instant op queues
    "memcached": MemcachedStore,
    "dynamodb": DynamoDBStore,
}
LOGICAL_NBYTES = 40_000  # under DynamoDB's item limit
ROUNDS = 2


def spy(gen, seen):
    """Forward `gen`'s commands, appending each one's type name to `seen`."""
    value = exc = None
    while True:
        try:
            command = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            return stop.value
        seen.append(type(command).__name__)
        value = exc = None
        try:
            value = yield command
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:  # noqa: BLE001 - forwarded into gen
            exc = thrown


def simulate(pattern, store_kind, workers, *, oracle, error_rate=0.0, retry_limit=5,
             kill=None):
    """ROUNDS exchanges of `workers` ranks; returns everything to compare."""
    engine = Engine(on_error="record")
    stats = engine.enable_stats()
    meter = CostMeter()
    store = STORES[store_kind](meter=meter)
    if error_rate:
        plan = FaultPlan(seed=7, storage_error_rate=error_rate,
                         retry=RetryPolicy(limit=retry_limit))
        store.fault_policy = StorageFaultPolicy(plan, "channel")
    # Every data-plane access, in order, with its simulated instant.
    accesses: list[tuple] = []
    for op in ("_do_put", "_do_get"):
        def logged(key, *args, _real=getattr(store, op), _op=op):
            accesses.append((_op, key, engine.now.hex()))
            return _real(key, *args)

        setattr(store, op, logged)
    exchange = PATTERNS[pattern][1 if oracle else 0]
    # The instant each rank finishes each round (or why it gave up).
    rounds: dict = {}
    seen: dict[int, list[str]] = {}

    def worker(rank):
        for r in range(ROUNDS):
            gen = exchange(store, rank, workers, f"{r:08d}", LOGICAL_NBYTES)
            try:
                yield from spy(gen, seen.setdefault(rank, []))
            except TransientStorageError as exc:
                rounds[rank, r] = repr(exc)
                return "gave up"
            rounds[rank, r] = engine.now
            yield Compute(0.01 * (rank % 5))  # ranks drift apart between rounds
        return rank

    procs = [engine.spawn(worker(rank), f"worker-{rank}") for rank in range(workers)]
    if kill is not None:
        victim, at = kill

        def reaper():
            yield Sleep(at)
            engine.kill(procs[victim])

        engine.spawn(reaper(), "reaper", daemon=True)
    try:
        engine.run()
        deadlock = None
    except DeadlockError as exc:  # a dead or failed rank strands the rest
        deadlock = str(exc)
    outcome = {
        "deadlock": deadlock,
        "accesses": accesses,
        "now": engine.now.hex(),
        "rounds": rounds,
        "processes": [
            (
                p.name,
                p.state.value,
                repr(p.result),
                None if p.finished_at is None else p.finished_at.hex(),
                {k: v.hex() for k, v in sorted(p.trace.as_dict().items())},
            )
            for p in engine.processes
        ],
        "dollars": {k: v.hex() for k, v in sorted(meter.breakdown().items())},
        "keys": sorted(store._objects),
        "faults": {k: float(v).hex() for k, v in sorted(store.fault_events.items())},
        "events": stats.events,
        "batches": stats.batches,
        "peak_heap": stats.peak_heap,
    }
    return outcome, seen, store


def assert_same(pattern, store_kind, workers, **kwargs):
    got, seen, store = simulate(pattern, store_kind, workers, oracle=False, **kwargs)
    want, oracle_seen, _ = simulate(pattern, store_kind, workers, oracle=True, **kwargs)
    got_keys, want_keys = got.pop("keys"), want.pop("keys")
    assert got == want
    if any(p[1] == "killed" or p[2] == "'gave up'" for p in got["processes"]):
        # A rank that dies inside its gather skips the last-reader
        # discards its sequence would have run on return; the per-op
        # path had already run those of the slices it read. Deferral
        # only ever keeps a file longer. (A training never sees this:
        # the run either fails, or — under crash injection — keeps every
        # round file in a retention window, where discard_after_read is
        # a no-op.)
        assert set(got_keys) >= set(want_keys)
    else:
        assert got_keys == want_keys
    got["keys"] = got_keys
    return got, seen, oracle_seen, store


@pytest.mark.parametrize("workers", [1, 2, 3, 17, 130])
@pytest.mark.parametrize("store_kind", sorted(STORES))
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_sequences_match_the_per_op_patterns(pattern, store_kind, workers):
    got, _, _, _ = assert_same(pattern, store_kind, workers)
    assert got["deadlock"] is None
    assert len(got["rounds"]) == workers * ROUNDS
    if workers > 1:  # (a lone ScatterReduce rank exchanges nothing)
        for rank in range(workers):  # rounds are separate: the second ends later
            assert got["rounds"][rank, 0] < got["rounds"][rank, 1]
    assert got["keys"] == []  # every round file retired by its last reader


@pytest.mark.parametrize(
    "pattern, store_kind, workers, retry_limit",
    [
        ("scatterreduce", "s3", 17, 5),
        ("scatterreduce", "redis", 3, 5),
        ("allreduce", "memcached", 17, 5),
        ("allreduce", "dynamodb", 17, 1),
        ("scatterreduce", "s3", 17, 1),
    ],
)
def test_flaky_storage_matches(pattern, store_kind, workers, retry_limit):
    got, _, _, _ = assert_same(
        pattern, store_kind, workers, error_rate=0.3, retry_limit=retry_limit
    )
    assert float.fromhex(got["faults"]["retries"]) > 0
    if retry_limit == 1:
        # At least one op exhausted its budget mid-sequence: the error
        # reached its worker after the same simulated charges, and the
        # ranks it stranded deadlock identically on both sides.
        assert float.fromhex(got["faults"]["exhaustions"]) > 0
        assert any(isinstance(v, str) for v in got["rounds"].values())
        assert got["deadlock"] is not None


@pytest.mark.parametrize(
    "pattern, victim, at, sequence",
    [
        ("scatterreduce", 5, 0.5, "PutEach"),  # the chunk scatter
        ("scatterreduce", 5, 2.0, "GetEach"),  # the contribution reads
        ("scatterreduce", 5, 3.5, "GetEach"),  # the merged-slice reads
        ("allreduce", 0, 0.5, "GetEach"),  # the leader's part reads
    ],
)
def test_kill_between_two_items(pattern, victim, at, sequence):
    got, seen, oracle_seen, store = assert_same(pattern, "s3", 17, kill=(victim, at))
    assert got["processes"][victim][1] == "killed"
    # The victim died suspended on a sequence; the oracle on one of its ops.
    assert seen[victim][-1] == sequence
    assert oracle_seen[victim][-1] == sequence.replace("Each", "")
    if sequence == "PutEach":
        # Some chunks went out (the in-flight one included), the rest never did.
        sent = [
            a for a in got["accesses"]
            if a[0] == "_do_put" and a[1].endswith(f"from_{victim:05d}")
        ]
        assert 1 <= len(sent) < 16


def _snapshot(engine, stats, meter, proc):
    return {
        "now": engine.now.hex(),
        "trace": {k: v.hex() for k, v in sorted(proc.trace.as_dict().items())},
        "dollars": {k: v.hex() for k, v in sorted(meter.breakdown().items())},
        "result": proc.result,
        "events": stats.events,
        "batches": stats.batches,
    }


@pytest.mark.parametrize("missing_at", [None, 0, 2, 4])
def test_results_and_a_missing_key_at_item_k(missing_at):
    items = [(f"k/{i}", SizedPayload(np.arange(i + 1.0), 1000 * (i + 1))) for i in range(5)]
    keys = [key for key, _ in items]
    if missing_at is not None:
        keys[missing_at] = "k/absent"

    def per_op(store):
        written = []
        for key, value in items:
            written.append((yield Put(store, key, value)))
        read = []
        try:
            for key in keys:
                read.append((yield Get(store, key)))
        except KeyNotFoundError as exc:
            return written, str(exc)
        return written, [unwrap(v).tolist() for v in read]

    def sequence(store):
        written = yield PutEach(store, items)
        try:
            read = yield GetEach(store, keys)
        except KeyNotFoundError as exc:
            return written, str(exc)
        return written, [unwrap(v).tolist() for v in read]

    snapshots = []
    for body in (sequence, per_op):
        engine = Engine()
        stats = engine.enable_stats()
        meter = CostMeter()
        store = S3Store(meter=meter)
        proc = engine.spawn(body(store), "p")
        engine.run()
        snapshots.append(_snapshot(engine, stats, meter, proc))
    got, want = snapshots
    assert got == want
    written, read = got["result"]
    assert written == [1000 * (i + 1) for i in range(5)]
    if missing_at is None:
        assert read == [list(np.arange(i + 1.0)) for i in range(5)]
    else:
        assert "k/absent" in read


@pytest.mark.parametrize("command", [PutEach, GetEach])
def test_an_empty_sequence_raises(command):
    engine = Engine()
    store = S3Store()

    def body():
        yield command(store, [])

    engine.spawn(body(), "p")
    with pytest.raises(SimulationError, match=f"p: empty {command.__name__}"):
        engine.run()


def test_a_scatter_round_resumes_each_worker_a_handful_of_times():
    """Generator resumes are O(W) per round, while storage events stay O(W^2)."""
    workers = 64
    engine = Engine()
    stats = engine.enable_stats()
    store = S3Store()

    def worker(rank):
        yield from scatter_reduce(store, rank, workers, "r0", 400_000)

    for rank in range(workers):
        engine.spawn(worker(rank), f"w{rank}")
    engine.run()
    # Per worker, the two waits, the merge and its put resume via _fire;
    # the scatter and both read sequences resume from their last item's
    # continuation, which every other item's continuation issues onward.
    assert stats.by_callsite["Engine._fire"] == 4 * workers
    assert stats.by_callsite["Engine._next_put"] == workers * (workers - 1)
    assert stats.by_callsite["Engine._next_get"] == 2 * workers * (workers - 1)
    assert stats.events > 3 * workers * (workers - 1)

