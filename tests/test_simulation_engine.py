"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.errors import (
    DeadlockError,
    ItemTooLargeError,
    KeyNotFoundError,
    SimulationError,
)
from repro.simulation.commands import (
    Collective,
    CollectiveGroup,
    Compute,
    Get,
    Join,
    ListKeys,
    Put,
    PutEach,
    Sleep,
    WaitKeyCount,
)
from repro.simulation.engine import Engine, ProcessState
from repro.storage.services import DynamoDBStore, S3Store
from repro.utils.serialization import SizedPayload


def test_sleep_advances_clock(engine):
    def proc():
        yield Sleep(5.0)
        return engine.now

    p = engine.spawn(proc(), "sleeper")
    engine.run()
    assert p.result == pytest.approx(5.0)
    assert engine.now == pytest.approx(5.0)


def test_compute_charges_compute_category(engine):
    def proc():
        yield Compute(2.5)

    p = engine.spawn(proc(), "worker")
    engine.run()
    assert p.trace.get("compute") == pytest.approx(2.5)


def test_processes_interleave_deterministically(engine):
    order = []

    def proc(name, delay):
        yield Sleep(delay)
        order.append(name)

    engine.spawn(proc("b", 2.0), "b")
    engine.spawn(proc("a", 1.0), "a")
    engine.run()
    assert order == ["a", "b"]


def test_put_then_get_roundtrip(engine, s3):
    def proc():
        yield Put(s3, "key", SizedPayload({"x": 1}, 9))
        value = yield Get(s3, "key")
        return value.value

    p = engine.spawn(proc(), "worker")
    engine.run()
    assert p.result == {"x": 1}


def test_get_missing_key_raises_into_process(engine, s3):
    def proc():
        try:
            yield Get(s3, "absent")
        except KeyNotFoundError:
            return "caught"
        return "not caught"

    p = engine.spawn(proc(), "worker")
    engine.run()
    assert p.result == "caught"


def test_get_sees_only_completed_puts(engine):
    """A get completing before a put's completion must miss the object."""
    store = S3Store()
    outcome = {}

    def slow_writer():
        # 64 MB at 65 MB/s: completes around t ~ 1s.
        import numpy as np


        yield Put(store, "big", SizedPayload(np.zeros(4), 64 * 1024 * 1024))

    def early_reader():
        try:
            yield Get(store, "big")
            outcome["saw"] = True
        except KeyNotFoundError:
            outcome["saw"] = False

    engine.spawn(slow_writer(), "writer")
    engine.spawn(early_reader(), "reader")
    engine.run()
    assert outcome["saw"] is False


def test_wait_key_wakes_after_put(engine, s3):
    times = {}

    def writer():
        yield Sleep(3.0)
        yield Put(s3, "flag", SizedPayload(1, 8))

    def waiter():
        yield WaitKeyCount(s3, "flag", 1, poll_interval=0.1)
        times["woke"] = engine.now

    engine.spawn(writer(), "writer")
    engine.spawn(waiter(), "waiter")
    engine.run()
    # Wakes at put-visibility plus one poll interval.
    assert times["woke"] >= 3.0
    assert times["woke"] <= 3.0 + s3.profile.latency_s + 0.2 + 1e-9


def test_wait_key_count(engine, s3):
    def writer(i):
        yield Sleep(float(i))
        yield Put(s3, f"parts/{i}", SizedPayload(i, 8))

    def waiter():
        yield WaitKeyCount(s3, "parts/", 3, poll_interval=0.05)
        return engine.now

    for i in range(3):
        engine.spawn(writer(i), f"w{i}")
    p = engine.spawn(waiter(), "waiter")
    engine.run()
    assert p.result >= 2.0  # last part written at t>=2


def test_deadlock_detection(engine, s3):
    def waiter():
        yield WaitKeyCount(s3, "never", 1, poll_interval=0.1)

    engine.spawn(waiter(), "stuck")
    with pytest.raises(DeadlockError):
        engine.run()


def test_daemon_processes_do_not_deadlock(engine, s3):
    def waiter():
        yield WaitKeyCount(s3, "never", 1, poll_interval=0.1)

    engine.spawn(waiter(), "daemon", daemon=True)
    engine.run()  # no DeadlockError


def test_spawn_and_join(engine):
    def child():
        yield Sleep(2.0)
        return 42

    def parent(proc):
        result = yield Join(proc)
        return result

    p = engine.spawn(parent(engine.spawn(child(), "child")), "parent")
    engine.run()
    assert p.result == 42
    assert engine.now == pytest.approx(2.0)


def test_join_propagates_exception(engine):
    def child():
        yield Sleep(1.0)
        raise ValueError("boom")

    def parent(proc):
        try:
            yield Join(proc)
        except ValueError as exc:
            return str(exc)

    p = engine.spawn(parent(engine.spawn(child(), "child")), "parent")
    with pytest.raises(ValueError, match="boom"):
        engine.run()  # the child's failure escapes run() first...
    engine.run()  # ...and the resumed run throws it into its joiner
    assert p.result == "boom"


def test_failed_process_recorded_when_on_error_record(engine):
    """A failed process is recorded before run() re-raises its exception."""
    def bad():
        yield Sleep(1.0)
        raise RuntimeError("nope")

    p = engine.spawn(bad(), "bad")
    with pytest.raises(RuntimeError):
        engine.run()
    assert p.state is ProcessState.FAILED
    assert isinstance(p.exception, RuntimeError)
    assert p.finished_at == 1.0


def test_failed_process_raises_by_default(engine):
    def bad():
        yield Sleep(1.0)
        raise RuntimeError("nope")

    engine.spawn(bad(), "bad")
    with pytest.raises(RuntimeError):
        engine.run()


def test_kill_terminates_process(engine):
    def loops():
        while True:
            yield Sleep(1.0)

    p = engine.spawn(loops(), "loops")
    engine.run(until=5.0)
    engine.kill(p)
    engine.run()
    assert p.state is ProcessState.KILLED


def test_collective_rendezvous(engine):
    group = CollectiveGroup(name="g", size=3, time_fn=lambda nbytes, size: 1.0)
    results = {}

    def member(i):
        yield Sleep(float(i))
        yield Collective(group, nbytes=8)
        results[i] = engine.now

    procs = [engine.spawn(member(i), f"m{i}") for i in range(3)]
    engine.run()
    # Everyone completes at the same instant: last arrival (2.0) + 1.0.
    assert results == {0: 3.0, 1: 3.0, 2: 3.0}
    # Early arrivals wait for the last one; everyone pays the collective once.
    assert [p.trace.as_dict().get("wait", 0.0) for p in procs] == [2.0, 1.0, 0.0]
    assert all(p.trace.as_dict()["comm"] == 1.0 for p in procs)


def test_collective_multiple_rounds(engine):
    group = CollectiveGroup(name="g", size=2, time_fn=lambda n, s: 0.5)
    log = []

    def member(i):
        for round_index in range(3):
            yield Collective(group, nbytes=8)
            log.append((i, round_index, engine.now))

    engine.spawn(member(0), "m0")
    engine.spawn(member(1), "m1")
    engine.run()
    # Each round is its own rendezvous: both members leave round r at 0.5 (r + 1).
    assert sorted(log) == [
        (i, r, 0.5 * (r + 1)) for i in range(2) for r in range(3)
    ]


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), float("-inf"), -1.0, -1e-300])
@pytest.mark.parametrize("command", [Sleep, Compute])
def test_invalid_timed_command_charges_and_queues_nothing(engine, command, duration):
    # The engine's check is the only guard on this path: a refused
    # duration reaches neither the process's trace nor the queue.
    def proc():
        yield command(duration)

    p = engine.spawn(proc(), "bad")
    with pytest.raises(SimulationError, match="bad: invalid duration"):
        engine.run()
    assert p.trace.as_dict() == {}
    assert not engine._fifo and not engine._times and not engine._at


def test_zero_sleep_resumes_behind_the_same_instant_events(engine):
    log = []

    def first():
        yield Sleep(1.0)
        log.append(("first", engine.now))
        yield Sleep(0.0)
        log.append(("first resumed", engine.now))

    def second():
        yield Sleep(1.0)
        log.append(("second", engine.now))

    p = engine.spawn(first(), "first")
    engine.spawn(second(), "second")
    engine.run()
    # The zero-duration resume joins the instant's FIFO behind the
    # second process's wake-up, queued before it.
    assert log == [("first", 1.0), ("second", 1.0), ("first resumed", 1.0)]
    assert p.trace.as_dict() == {"idle": 1.0}


def test_unknown_command_fails_naming_the_process(engine):
    def proc():
        yield "not a command"

    engine.spawn(proc(), "confused")
    with pytest.raises(SimulationError, match="confused: unknown command 'not a command'"):
        engine.run()


SMALL = SizedPayload(None, 8)
TOO_LARGE = SizedPayload(None, 1024 * 1024)  # over DynamoDB's 400 KB item limit
REFUSED = {
    "nan sleep": (lambda store: Sleep(float("nan")), SimulationError),
    "raw bytes put": (lambda store: Put(store, "k", b"raw"), SimulationError),
    "raw bytes in a PutEach": (
        lambda store: PutEach(store, [("a", SMALL), ("b", b"raw")]), SimulationError,
    ),
    "item too large": (lambda store: Put(store, "k", TOO_LARGE), ItemTooLargeError),
    "item too large in a PutEach": (
        lambda store: PutEach(store, [("a", SMALL), ("b", TOO_LARGE)]), ItemTooLargeError,
    ),
}


@pytest.mark.parametrize("refused", REFUSED.values(), ids=REFUSED)
def test_a_refused_command_fails_its_process(refused):
    # The refusal escapes run(), and the process that yielded it is over:
    # FAILED with the error, retired, and its joiner is thrown the error
    # on the resumed run instead of both reading as a deadlock.
    engine, store = Engine(), DynamoDBStore()
    command, error = refused
    thrown = []

    def bad():
        yield Sleep(1.0)
        yield command(store)

    def joiner(target):
        try:
            yield Join(target)
        except error as exc:
            thrown.append(exc)

    p = engine.spawn(bad(), "bad")
    engine.spawn(joiner(p), "joiner")
    with pytest.raises(error):
        engine.run()
    assert p.state is ProcessState.FAILED and isinstance(p.exception, error)
    assert p.finished_at == engine.now >= 1.0
    assert p not in engine._alive
    engine.run()
    assert thrown == [p.exception]


@pytest.mark.parametrize("interval", [0.0, -1.0, float("inf"), float("nan")])
@pytest.mark.parametrize("wait", ["key", "count"])
def test_invalid_poll_interval_rejected(engine, s3, wait, interval):
    def proc():
        if wait == "key":  # one file, by its full name
            yield WaitKeyCount(s3, "k", 1, poll_interval=interval)
        else:
            yield WaitKeyCount(s3, "parts/", 3, poll_interval=interval)

    engine.spawn(proc(), "bad")
    with pytest.raises(SimulationError, match="bad: invalid poll_interval"):
        engine.run()
    assert s3.meter.total == 0.0


def test_list_keys(engine, s3):
    def proc():
        yield Put(s3, "a/1", SizedPayload(1, 8))
        yield Put(s3, "a/2", SizedPayload(2, 8))
        yield Put(s3, "b/1", SizedPayload(3, 8))
        keys = yield ListKeys(s3, "a/")
        return keys

    p = engine.spawn(proc(), "worker")
    engine.run()
    assert p.result == ["a/1", "a/2"]


def test_run_until_pauses_and_resumes(engine):
    def proc():
        yield Sleep(10.0)
        return "done"

    p = engine.spawn(proc(), "worker")
    engine.run(until=5.0)
    assert engine.now == pytest.approx(5.0)
    assert p.state is ProcessState.BLOCKED
    engine.run()
    assert p.result == "done"


class TestJobEnd:
    """The run stops once the last non-daemon process is done."""

    @staticmethod
    def ticker(engine, log, name):
        while True:
            yield Sleep(1.0)
            log.append((name, engine.now))
            yield Sleep(0.0)  # a same-instant resume: the FIFO
            log.append((name + "'", engine.now))

    def job(self):
        engine, log = Engine(), []
        stats = engine.enable_stats()

        def worker():
            yield Sleep(1.0)
            log.append(("worker", engine.now))

        a = engine.spawn(self.ticker(engine, log, "a"), "a", daemon=True)
        engine.spawn(worker(), "worker")
        b = engine.spawn(self.ticker(engine, log, "b"), "b", daemon=True)
        return engine, stats, log, (a, b)

    def test_stops_mid_batch_with_same_instant_daemon_events_queued(self):
        engine, stats, log, daemons = self.job()
        engine.run()
        # At t=1 "a" ran and queued its zero-delay resume, then the worker
        # finished: b's t=1 wake-up (queued at t=0) and a's resume (queued
        # at t=1) never run. Both stay on the FIFO, in scheduling order.
        assert log == [("a", 1.0), ("worker", 1.0)]
        assert stats.events == 5 and stats.batches == 2
        assert engine.now == 1.0
        assert not engine._times and not engine._at and engine._queued == 0
        a, b = daemons
        assert [(fn.__qualname__, args[0]) for fn, args in engine._fifo] == [
            ("Engine._fire", b), ("Engine._fire", a)
        ]
        assert all(d.state is ProcessState.KILLED for d in daemons)

    def test_a_process_spawned_after_the_job_ended_re_arms_the_loop(self):
        engine, stats, log, _ = self.job()
        engine.run()

        def late():
            yield Sleep(2.0)
            log.append(("late", engine.now))
            return "late"

        proc = engine.spawn(late(), "late")
        engine.run()
        assert proc.result == "late"
        assert log == [("a", 1.0), ("worker", 1.0), ("late", 3.0)]
        # The two stale daemon events are dispatched (and ignored) on the way.
        assert stats.events == 9
        assert engine.now == 3.0

    def test_run_until_resumed_after_the_job_ended(self):
        engine, stats, log, _ = self.job()
        engine.run(until=0.5)
        assert engine.now == 0.5 and stats.events == 3
        engine.run(until=4.0)
        assert engine.now == 1.0  # stopped at the job's end, not at `until`
        assert log == [("a", 1.0), ("worker", 1.0)]
        engine.run(until=6.0)
        assert engine.now == 1.0 and stats.events == 5
        assert log == [("a", 1.0), ("worker", 1.0)]


class TestProcessLifetime:
    """The engine holds live processes only."""

    def test_a_finished_process_is_freed_while_the_run_continues(self):
        engine, seen = Engine(), []

        def short():
            yield Sleep(1.0)

        ref = weakref.ref(engine.spawn(short(), "short"))

        def longer():
            yield Sleep(2.0)
            seen.append(ref() is None)

        engine.spawn(longer(), "longer")
        enabled = gc.isenabled()
        gc.disable()  # refcount alone must free it, not a collection
        try:
            engine.run()
        finally:
            if enabled:
                gc.enable()
        assert seen == [True]

    def test_a_deadlock_after_some_finished_names_only_the_blocked(self, s3):
        engine = Engine()

        def done(delay):
            yield Sleep(delay)

        def waits(prefix):
            yield WaitKeyCount(s3, prefix, 1, poll_interval=0.1)

        engine.spawn(done(1.0), "done-1")
        stuck_b = engine.spawn(waits("b/"), "stuck-b")
        engine.spawn(done(2.0), "done-2")
        engine.spawn(waits("a/"), "stuck-a")

        def joiner():
            yield Join(stuck_b)

        engine.spawn(joiner(), "joiner")
        engine.spawn(waits("d/"), "daemon", daemon=True)
        with pytest.raises(DeadlockError) as raised:
            engine.run()
        assert str(raised.value) == (
            "3 process(es) blocked with no pending events "
            "(3 waiting on storage): stuck-b, stuck-a, joiner"
        )
