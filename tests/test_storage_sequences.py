"""Storage-op sequences (PutEach / GetEach) against the reference.

A run of consecutive storage ops is one command: the engine steps through
it with exactly the events the single ops dispatch and resumes the
generator once, at the end. The oracle is ``tests/reference``: its
patterns issue one ``yield Put`` / ``yield Get`` per item on its own
engine and store, and both sides must agree bit for bit on the clock, the
instant each rank finishes each round, every process's time breakdown,
dollars, live keys and fault counters. Run on the real engine, those
single-op patterns also dispatch the sequences' events, batches and peak
queue.
"""

from __future__ import annotations

import pytest

from reference.harness import ProcSpec, StoreSpec, World, assert_same_world, pattern_world
from repro.comm.patterns import scatter_reduce
from repro.errors import SimulationError
from repro.simulation.commands import GetEach, PutEach
from repro.simulation.engine import Engine
from repro.storage.services import S3Store

PATTERNS = ("allreduce", "scatterreduce")
STORES = ("dynamodb", "memcached", "redis", "s3")  # redis: every same-instant op queues
ROUNDS = 2


def ends(got) -> dict:
    """(worker, round index) -> when it finished the round, or what it gave up on."""
    rounds: dict = {}
    for name, t, op, outcome in got["log"]:
        if op == "exchange":
            r = sum(key[0] == name for key in rounds)
            rounds[name, r] = outcome if isinstance(outcome, tuple) else float.fromhex(t)
    return rounds


@pytest.mark.parametrize(
    "pattern, store_kind, workers",
    [
        (pattern, store_kind, workers)
        for workers in (1, 2, 3, 17, 64, 130)
        for store_kind in STORES
        for pattern in PATTERNS
        # A W=130 ScatterReduce takes the reference seconds per round.
        if (pattern, workers) != ("scatterreduce", 130)
    ],
)
def test_sequences_match_the_per_op_patterns(pattern, store_kind, workers):
    got = assert_same_world(pattern_world(pattern, store_kind, workers, rounds=ROUNDS))[0].outcome
    assert got["errors"] == []
    rounds = ends(got)
    assert len(rounds) == workers * ROUNDS
    if workers > 1:  # (a lone ScatterReduce rank exchanges nothing)
        for rank in range(workers):  # rounds are separate: the second ends later
            assert rounds[f"worker-{rank}", 0] < rounds[f"worker-{rank}", 1]
    assert got["stores"][0][0] == {}  # every round file retired by its last reader


@pytest.mark.parametrize(
    "pattern, store_kind, workers, retry_limit",
    [
        ("scatterreduce", "s3", 17, 5),
        ("scatterreduce", "redis", 3, 5),
        ("allreduce", "memcached", 17, 5),
        ("allreduce", "dynamodb", 17, 1),
        ("scatterreduce", "s3", 17, 1),
        ("allreduce", "s3", 1, 5),
        ("scatterreduce", "memcached", 2, 5),
        ("scatterreduce", "dynamodb", 64, 5),
        ("allreduce", "redis", 64, 1),
    ],
)
def test_flaky_storage_matches(pattern, store_kind, workers, retry_limit):
    got = assert_same_world(pattern_world(pattern, store_kind, workers, rounds=ROUNDS,
                                          fault=(0.3, retry_limit)))[0].outcome
    faults = got["stores"][0][1]
    assert float.fromhex(faults["retries"]) > 0 or workers == 1  # a lone rank: six ops
    if retry_limit == 1:
        # At least one op exhausted its budget mid-sequence: the error
        # reached its worker after the same simulated charges, and the
        # ranks it stranded deadlock identically on both sides.
        assert float.fromhex(faults["exhaustions"]) > 0
        assert any(isinstance(v, tuple) for v in ends(got).values())  # gave up
        assert got["errors"][-1][0] == "DeadlockError"


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
    world = pattern_world(pattern, "s3", 17, rounds=ROUNDS, kill=(f"worker-{victim}", at))
    real, _ = assert_same_world(world)
    assert real.outcome["processes"][victim][1] == "killed"
    assert real.last[f"worker-{victim}"] == sequence  # it died suspended on a sequence


@pytest.mark.parametrize("missing_at", [None, 0, 2, 4])
def test_results_and_a_missing_key_at_item_k(missing_at):
    items = tuple((f"k/{i}", 1000 * (i + 1)) for i in range(5))
    keys = [key for key, _ in items]
    if missing_at is not None:
        keys[missing_at] = "k/absent"
    world = World([StoreSpec("s3")],
                  [ProcSpec("p", (("put_each", 0, items), ("get_each", 0, tuple(keys))))])
    (_, _, _, written), (_, _, _, read) = assert_same_world(world)[0].outcome["log"]
    assert written == [1000 * (i + 1) for i in range(5)]
    if missing_at is None:
        assert read == [("sized", 1000 * (i + 1), None) for i in range(5)]
    else:
        assert read == ("KeyNotFoundError", "s3: no such key 'k/absent'")


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

