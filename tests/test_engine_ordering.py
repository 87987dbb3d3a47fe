"""Dispatch order of the engine's two queues, and the run loop's contracts.

The engine keeps future events on one list per instant, beside a heap of
the distinct instants, and events scheduled at the current instant in a
FIFO that queues no instant. The claim is that this is *exactly* seq
order: the seeded worlds below run on the real engine and on the
reference engine (``tests/reference``), where every event draws a seq
and rides one heap, and everything observable must agree — also when
the real side pauses with ``run(until=...)`` at arbitrary instants.
"""

from __future__ import annotations

import math

import pytest

from reference.harness import OPS, SeededPick, assert_same_world, build_world
from repro.core.config import TrainingConfig
from repro.core.driver import train
from repro.errors import SimulationError
from repro.simulation.commands import Put, Sleep
from repro.simulation.engine import Engine, capture_stats
from repro.storage.services import S3Store
from repro.substrate import ExactSubstrate, ReplaySubstrate
from repro.utils.serialization import SizedPayload


# Workers that never wait on storage or join a peer run long scripts
# before the world deadlocks; the watch group still waits on counts.
LONG_RUNNING = tuple(op for op in OPS if op not in ("wait_key", "wait_count", "join"))


@pytest.mark.parametrize("seed", range(25))
def test_two_queue_dispatch_is_seq_order(seed):
    real, ref = assert_same_world(build_world(
        SeededPick(f"order:{seed}"), kinds=("redis", "s3"), sliced=False, workers=(4, 6),
        ops=(30, 40), menu=LONG_RUNNING, fragile=False, raiser=True, join=True, group=3,
        watch=True, kill=True))
    outcome = real.outcome
    assert len(outcome["log"]) > 40
    assert {"Collective", "WaitKeyCount", "Join"} <= ref.features
    assert any(op == "kill" for _, _, op, _ in outcome["log"])
    # The raiser failed, or an over-limit put escaped run() first.
    assert any(state == "failed" for _, state, *_ in outcome["processes"]) or any(
        name != "DeadlockError" for name, *_ in outcome["errors"])
    assert real.stats.events > real.stats.batches + 30  # many batches of several events


@pytest.mark.parametrize("seed", range(8))
def test_run_until_in_slices_equals_one_run(seed):
    """Pausing at any instant never reorders same-instant events.

    Pauses fall between batches, so even the batch count is that of one
    run (``assert_same_world`` runs the world unsliced too).
    """
    world = build_world(SeededPick(f"slices:{seed}"), kinds=("redis", "s3"), sliced=True,
                        pauses=(8, 12), workers=(4, 6), ops=(20, 30), menu=LONG_RUNNING,
                        fragile=False)
    real, _ = assert_same_world(world)
    end = float.fromhex(real.outcome["clock"])
    assert sum(t < end for t in world.slices) >= 6 and real.stats.batches > 40


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


@pytest.mark.parametrize("until", [float("nan"), -1.0, 4.0])
def test_run_until_refuses_nan_and_the_past(until):
    """`t > nan` is always false: such a run used to dispatch everything."""
    engine = Engine()
    finished = []

    def sleeper():
        yield Sleep(10)
        finished.append(engine.now)

    engine.spawn(sleeper(), "sleeper")
    if until == 4.0:  # the past, once the clock reads 5
        engine.run(until=5.0)
    before = engine.now
    with pytest.raises(SimulationError, match="must be at or after now"):
        engine.run(until=until)
    assert engine.now == before and not finished
    engine.run(until=math.inf)  # None and inf stay legal
    assert finished == [10.0]


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-13])
def test_spawn_rejects_invalid_delay(delay):
    engine = Engine()

    def noop():
        yield Sleep(1)

    with pytest.raises(SimulationError, match="late: invalid delay"):
        engine.spawn(noop(), "late", delay=delay)
    # Nothing is alive or queued: no instant, no event on any list, none on the FIFO.
    assert not engine._alive and not engine._fifo
    assert not engine._times and not engine._at and engine._queued == 0


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
    # No instant was ever queued: every event went straight to the FIFO.
    assert not engine._times and not engine._at and engine._queued == 0


def test_second_run_after_a_raise_redispatches_nothing():
    engine = Engine()
    store = S3Store()
    steps = []

    def calm(name):
        for i in range(3):
            steps.append((name, i))
            yield Sleep(0)
        yield Put(store, f"k/{name}", SizedPayload(1, 8))
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
