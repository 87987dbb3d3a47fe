"""Dispatch order of the engine's two queues against an all-heap oracle.

The engine keeps future events in a ``(time, seq, fn, args)`` heap and
events scheduled at the current instant in a FIFO that never touches
the heap. The claim is that this is *exactly* seq order. The oracle
below is the historical scheduler — every event, zero-delay or not,
takes a seq and goes through the heap (the engine with its FIFO swapped
for a shim that pushes onto the heap) — kept here and nowhere else.
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.core.config import TrainingConfig
from repro.core.driver import train
from repro.errors import KeyNotFoundError, SimulationError
from repro.pricing.meter import CostMeter
from repro.simulation.commands import (
    Collective,
    CollectiveGroup,
    Compute,
    Delete,
    Get,
    GetEach,
    Join,
    ListKeys,
    Put,
    PutEach,
    Sleep,
    Spawn,
    WaitKey,
    WaitKeyCount,
)
from repro.simulation.engine import Engine, capture_stats
from repro.storage.base import ObjectStore, StorageProfile
from repro.storage.services import S3Store
from repro.substrate import ExactSubstrate, ReplaySubstrate


class _HeapBackedFifo:
    """Stands in for the same-instant FIFO: sends each event through the heap."""

    def __init__(self, engine):
        self.engine = engine

    def append(self, event):
        engine = self.engine
        heapq.heappush(engine._heap, (engine.now, next(engine._seq), *event))

    def __len__(self):
        return 0  # never holds anything, so run() never pops from it

    popleft = None  # run() binds it up front; this queue being empty, never calls it


class AllHeapEngine(Engine):
    """Reference scheduler: every event draws a seq and rides the heap."""

    def __init__(self, on_error="raise"):
        super().__init__(on_error)
        self._fifo = _HeapBackedFifo(self)


def logged(engine, log, name, gen):
    """Run `gen` as process `name`, logging (now, name, command type)."""
    value = exc = None
    while True:
        try:
            command = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            log.append((engine.now, name, "return"))
            return stop.value
        except BaseException:
            log.append((engine.now, name, "raise"))
            raise
        log.append((engine.now, name, type(command).__name__))
        value = exc = None
        try:
            value = yield command
        except GeneratorExit:
            log.append((engine.now, name, "killed"))
            gen.close()
            raise
        except BaseException as thrown:  # noqa: BLE001 - forwarded into gen
            exc = thrown


# Durations from a tiny grid, so unrelated processes keep landing on the
# same simulated instant; 0.0 is the zero-delay path itself.
DURATIONS = (0.0, 0.0, 0.01, 0.02, 0.05)
WORKERS = 5
STEPS = 28
PUBLISHED = 12


def build(engine_cls, seed):
    """One seeded process mix on a fresh engine; returns what to compare."""
    rng = random.Random(seed)
    engine = engine_cls(on_error="record")
    stats = engine.enable_stats()
    meter = CostMeter()
    s3 = S3Store(meter=meter)
    # One slot, so same-instant operations contend for service.
    narrow = ObjectStore(StorageProfile("narrow", latency_s=0.01, bandwidth_bps=1e4, concurrency=1))
    stores = (s3, narrow)
    group = CollectiveGroup(
        "ring", WORKERS, reduce_fn=sum, time_fn=lambda nbytes, size: 0.01 * size
    )
    log: list[tuple] = []

    def spawn(gen, name, **kwargs):
        return engine.spawn(logged(engine, log, name, gen), name, **kwargs)

    def child(tag, ops):
        for i in range(ops):
            yield Put(rng.choice(stores), f"r/{tag}/{i}", i)
            yield Sleep(rng.choice(DURATIONS))
        return tag

    def worker(rank):
        for step in range(STEPS):
            if step in (9, 19):  # every worker reaches both rendezvous
                total = yield Collective(group, rank)
                assert total == sum(range(WORKERS))
                continue
            store = rng.choice(stores)
            key = f"r/{rng.randrange(4)}/{rng.randrange(3)}"
            kind = rng.randrange(13)
            if kind == 0:
                yield Sleep(0)
            elif kind == 1:
                yield Sleep(rng.choice(DURATIONS))
            elif kind == 2:
                yield Compute(rng.choice(DURATIONS))
            elif kind == 3:
                yield Put(store, key, rng.randrange(1000))
            elif kind == 4:
                try:
                    yield Get(store, key)
                except KeyNotFoundError:
                    pass
            elif kind == 5:
                yield Delete(store, key)
            elif kind == 6:
                yield ListKeys(store, "r/")
            elif kind == 7:  # exact-key wait, satisfied on arrival or later
                yield WaitKey(s3, f"pub/{rng.randrange(PUBLISHED)}", poll_interval=0.01)
            elif kind == 8:  # two registered prefix lengths: "pub/" and "pub/1"
                prefix, most = rng.choice((("pub/", PUBLISHED), ("pub/1", 3)))
                yield WaitKeyCount(s3, prefix, rng.randrange(1, most + 1), poll_interval=0.02)
            elif kind == 9:
                kid = yield Spawn(
                    logged(engine, log, f"kid-{rank}-{step}", child(f"{rank}-{step}", 2)),
                    f"kid-{rank}-{step}",
                    delay=0,
                )
                assert (yield Join(kid)) == f"{rank}-{step}"
            elif kind == 10:
                try:
                    yield Join(raiser)
                except ValueError:
                    pass
            elif kind == 11:  # a sequence: same events as its Puts, one resume
                items = [(f"r/{rng.randrange(4)}/{i}", i) for i in range(rng.randrange(1, 4))]
                assert (yield PutEach(store, items)) == [8] * len(items)
            else:  # may miss a key at any item
                count = rng.randrange(1, 4)
                keys = [f"r/{rng.randrange(4)}/{rng.randrange(3)}" for _ in range(count)]
                try:
                    yield GetEach(store, keys)
                except KeyNotFoundError:
                    pass
        return rank

    def publisher():
        for i in range(PUBLISHED):
            yield Put(s3, f"pub/{i}", i)
            yield Sleep(rng.choice(DURATIONS))

    def raising():
        yield Put(narrow, "r/boom", 1)
        yield Sleep(0.02)
        raise ValueError("boom")

    def victim():
        # A kill may land between two items of the sequence.
        yield PutEach(narrow, [("r/victim", 1), ("r/victim/2", 2), ("r/victim/3", 3)])
        yield WaitKeyCount(s3, "never/", 1, poll_interval=0.01)  # until killed

    def reaper(target, after):
        yield Sleep(after)
        engine.kill(target)
        while True:  # a daemon never keeps the run alive
            yield Sleep(0.03)

    raiser = spawn(raising(), "raiser")
    spawn(publisher(), "publisher")
    doomed = spawn(victim(), "victim")
    spawn(reaper(doomed, rng.choice((0.02, 0.05, 0.3))), "reaper", daemon=True)
    for rank in range(WORKERS):
        spawn(worker(rank), f"worker-{rank}")
    return engine, stats, meter, stores, log


def outcome(engine, stats, meter, stores, log):
    return {
        "log": log,
        "clock": engine.now.hex(),
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
        "keys": [sorted(s._objects) for s in stores],
        "events": stats.events,
        "batches": stats.batches,
        "peak_heap": stats.peak_heap,
    }


@pytest.mark.parametrize("seed", range(25))
def test_two_queue_dispatch_is_seq_order(seed):
    real = build(Engine, seed)
    real[0].run()
    oracle = build(AllHeapEngine, seed)
    oracle[0].run()
    got, want = outcome(*real), outcome(*oracle)
    assert got["log"] == want["log"]
    assert got == want
    assert len(got["log"]) > 200
    kinds = {entry[2] for entry in got["log"]}
    assert {"Collective", "WaitKeyCount", "Spawn", "Join", "killed", "raise"} <= kinds


@pytest.mark.parametrize("seed", range(8))
def test_run_until_in_slices_equals_one_run(seed):
    """Pausing at any instant never reorders same-instant events."""
    whole = build(Engine, seed)
    whole[0].run()
    sliced = build(Engine, seed)
    rng = random.Random(seed)
    t = 0.0
    for _ in range(12):
        # Grid points (where events collide) and points between them.
        t += rng.choice((0.01, 0.02, 0.05, 0.013, 0.08))
        sliced[0].run(until=t)
    sliced[0].run()
    # Pauses fall between batches, so even the batch count is the same.
    assert outcome(*sliced) == outcome(*whole)


def test_run_until_keeps_same_instant_order():
    """The event past `until` stays queued with its seq (was: re-pushed)."""
    for pause in (None, 5.0):
        engine = Engine()
        finished = []

        def sleeper(name):
            yield Sleep(10)
            finished.append(name)

        engine.spawn(sleeper("A"), "A")
        engine.spawn(sleeper("B"), "B")
        if pause is not None:
            engine.run(until=pause)
            assert engine.now == pause
        engine.run()
        assert finished == ["A", "B"]


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-13])
def test_spawn_rejects_invalid_delay(delay):
    engine = Engine()

    def noop():
        yield Sleep(1)

    with pytest.raises(SimulationError, match="late: invalid delay"):
        engine.spawn(noop(), "late", delay=delay)
    assert not engine.processes and not engine._heap and not engine._fifo

    def parent():
        yield Spawn(noop(), "late", delay=delay)

    engine.spawn(parent(), "parent")
    with pytest.raises(SimulationError, match="late: invalid delay"):
        engine.run()
    assert not engine._heap
    assert engine.now == 0.0


def test_zero_delay_events_never_reach_the_heap():
    engine = Engine()
    stats = engine.enable_stats()

    def spinner():
        for _ in range(1000):
            yield Sleep(0)

    engine.spawn(spinner(), "spinner")
    engine.run()
    assert stats.events == 1001  # the first step + one resume per Sleep(0)
    assert stats.batches == 1
    assert stats.peak_heap == 1
    assert next(engine._seq) == 0  # no seq was ever drawn


def test_second_run_after_a_raise_redispatches_nothing():
    engine = Engine()  # on_error="raise"
    store = S3Store()
    steps = []

    def calm(name):
        for i in range(3):
            steps.append((name, i))
            yield Sleep(0)
        yield Put(store, f"k/{name}", 1)
        steps.append((name, "put"))

    def angry():
        steps.append(("angry", 0))
        yield Sleep(0)
        raise ValueError("boom")

    engine.spawn(calm("a"), "a")
    engine.spawn(angry(), "angry")
    engine.spawn(calm("b"), "b")
    with pytest.raises(ValueError, match="boom"):
        engine.run()
    before = list(steps)
    engine.run()
    assert len(steps) == len(set(steps))  # nothing ran twice
    assert steps[: len(before)] == before
    assert steps[len(before):] == [
        ("b", 1), ("a", 2), ("b", 2), ("a", "put"), ("b", "put"),
    ]
    assert sorted(store._objects) == ["k/a", "k/b"]


REPLAY_BASE = dict(
    model="lr", dataset="higgs", algorithm="ga_sgd", system="lambdaml", channel="s3",
    data_scale=500, batch_size=10000, lr=0.05, loss_threshold=None, seed=20210620, workers=16,
)


@pytest.mark.parametrize(
    "params, pinned",
    [
        # (events, batches, peak_heap) recorded with the all-heap engine
        # of PR 13: batching and the FIFO are invisible to all three.
        (dict(pattern="scatterreduce", max_epochs=0.004), (7760, 2729, 16)),
        (dict(pattern="allreduce", max_epochs=0.05), (8078, 3305, 16)),
    ],
)
def test_pinned_event_counts(params, pinned):
    config = TrainingConfig(**REPLAY_BASE, **params)
    recording = ExactSubstrate()
    recorded = train(config, recording)
    with capture_stats() as sink:
        replayed = train(config, ReplaySubstrate(recording.trace))
    assert [(s.events, s.batches, s.peak_heap) for s in sink] == [pinned]
    assert replayed.duration_s == recorded.duration_s
    assert replayed.cost_total == recorded.cost_total
