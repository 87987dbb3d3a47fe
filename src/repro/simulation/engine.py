"""The discrete-event engine.

Processes are Python generators yielding :mod:`repro.simulation.commands`.
An event is `(fn, args)`: a bound method and its arguments, no
per-operation closures. Events at a future instant are queued on that
instant's list (a map from instant to list, beside a heap of the
distinct instants as bare floats); events at the current instant go
straight onto a same-instant FIFO. Data effects (storage writes,
collective completions) are applied at the simulated *completion* time
of their operation, so reads that complete earlier never observe later
writes. All scheduling is deterministic: events at one instant run in
the order they were scheduled (see :meth:`Engine.run`).

Complexity guarantees (the engine must scale to runs with hundreds of
workers, so these are load-bearing — see ``benchmarks/
bench_engine_microbench.py``):

* Storage wake-ups are event-driven, not scan-driven. Who waits on a
  store is that store's business (the wait index of
  :mod:`repro.storage.base`): applying a put is one store call,
  ``_do_put``, which stores, indexes and wake-checks the key and hands
  back exactly the waiters it satisfies — O(distinct watched prefix
  lengths) dict probes, each settled by one comparison with the
  prefix's smallest target unless a waiter there is satisfied. Every
  storage wait is a :class:`~repro.simulation.commands.WaitKeyCount`
  (a wait for one file is a count of one on its name). No put ever
  rescans unrelated waiters or stored keys.
* Prefix counts come from the store's live counters (O(1) for a
  watched prefix, O(log n) bisect otherwise) and key listings from
  its sorted index (O(log n + matches)).
* Wake-up order is the waiters' registration order across prefixes,
  by the store's dedicated sequence counter — matching what the
  historical linear scan produced, so traces are reproducible across
  engine versions.
* Poll billing for a satisfied waiter is one batched
  ``record_polls(count)`` call whose cost is O(log count) — the meter
  adds the price `count` times in closed form
  (:func:`repro.pricing.meter.repeated_add`) — so host time does not
  depend on the simulated poll interval.
* Service slot booking is O(log slots) via
  :class:`repro.simulation.resources.ServiceQueue`'s heap.
* A storage op is one store call: :meth:`~repro.storage.base.ObjectStore.
  book` checks the item limit, books the op on the store's queue (one
  ``heapreplace``), bills it from prices the store resolved once and
  charges the issuer's ``wait`` and category seconds — the one place a
  storage op's simulated time is charged. A transfer's size is its
  payload's ``nbytes``, stated by the sender: a put of anything but a
  ``SizedPayload`` is refused with a ``SimulationError`` naming the
  process and the key, a get books the stored payload's ``nbytes`` and
  a collective round the largest member's ``Collective.nbytes``. The
  completion is scheduled inline.
* Event dispatch is batched per timestamp: the run loop pops the
  earliest instant off the heap once, advances the clock and moves the
  instant's whole list onto the FIFO, then drains the FIFO in a tight
  inner loop (synchronized phases — a W-worker barrier release, W²
  same-instant chunk completions — pay one heap pop and one clock
  advance, not W²). Queuing an event at an instant already queued is a
  dict probe and a list append, with no heap operation at all.
  Dispatch order within a batch is exactly scheduling order, so
  batching is invisible to traces.
* A process step costs one handler frame per yielded command: ``_step``
  looks the handler up in ``_DISPATCH_TABLE`` itself, and a timed
  command (``Sleep`` / ``Compute``) is checked once, charged in its
  handler and queued through ``_schedule``.
* A storage-op sequence resumes its generator once; each op keeps its
  own events: after each item ``_next_put`` / ``_next_get`` take the
  slot a ``_fire`` held (same instant, same place in its order) and
  issue the next item or, after the last, resume. A single Put/Get has
  ``rest`` / ``done`` None.

Clock and process lifetime: the clock is ``Engine.now``, a plain float
attribute that only the run loop stores into (each popped instant, or
``until``), so a read costs no call. The engine holds live processes
only: ``_alive`` is an insertion-ordered dict that ``spawn`` inserts
into and ``_retire`` deletes from, so a finished process nothing else
holds (a caller's handle, a ``Join``) is freed by refcount at once,
and the deadlock report and the daemon sweep walk live processes in
spawn order.

Profiling: :meth:`Engine.enable_stats` attaches an
:class:`EngineStats` that counts dispatched events per callsite (the
dispatched method's ``__qualname__``), batches and peak pending events
— the event-count profile ``repro.cli train --profile`` dumps next to
the cProfile table. Disabled (the default) it costs one identity check
per event. :func:`capture_stats` auto-enables it on every engine
constructed inside a ``with`` block and collects the stats objects,
which is how the CLI profiles runs whose engines are built deep
inside the driver or sweep orchestrator.

Fault-injection semantics (see :mod:`repro.faults`): :meth:`Engine.
kill` terminates a process at its current yield point, deregistering
any storage waiter it holds so a later put neither bills polls for nor
wakes the dead process; in-flight operations still apply their data
effects (an S3 write survives its writer). Daemon processes (fault
monitors) never keep the simulation alive — the run loop stops, and
the clock freezes, once the last non-daemon process finishes: one
``_over`` flag, set by ``_retire`` and cleared by ``spawn``, is the
test the loop reads per event. The per-event paths read module-level
aliases of the :class:`ProcessState` members (``_BLOCKED``, ...),
not the enum's attributes.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Any, Callable, Generator

from repro.errors import (
    DeadlockError,
    KeyNotFoundError,
    SimulationError,
    TransientStorageError,
)
from repro.simulation.commands import (
    Collective,
    Compute,
    Get,
    GetEach,
    Join,
    ListKeys,
    Put,
    PutEach,
    Sleep,
    WaitKeyCount,
)
from repro.simulation.tracing import TimeBreakdown
from repro.utils.serialization import SizedPayload
from repro.utils.stats import tally

Command = Any
ProcessGenerator = Generator[Command, Any, Any]

class ProcessState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"
    KILLED = "killed"


# Module-level aliases of the states the hot paths (_first_step, _step,
# _fire, _next_put, _next_get, _apply_get) read on every event: a global
# read costs a fraction of an enum attribute read. _ALIVE_STATES is the
# Process.alive predicate.
_READY = ProcessState.READY
_RUNNING = ProcessState.RUNNING
_BLOCKED = ProcessState.BLOCKED
_DONE = ProcessState.DONE
_FAILED = ProcessState.FAILED
_ALIVE_STATES = (_READY, _RUNNING, _BLOCKED)
_INF = math.inf


class EngineStats:
    """Optional per-run event counters (attach via Engine.enable_stats).

    ``by_callsite`` keys are the dispatched methods' ``__qualname__``
    (``Engine._fire``, ``Engine._apply_put``, ``Engine._apply_get``,
    ``Engine._first_step``, ...), which names the engine seam the event
    runs — enough to see *which* hot path a regression lives in
    without a full cProfile run; the run loop counts them, and
    ``events`` is their total. ``peak_heap`` (a historical name) counts
    every pending event at a batch start, queued and same-instant FIFO
    together.
    """

    __slots__ = ("batches", "peak_heap", "by_callsite")

    def __init__(self) -> None:
        self.batches = 0
        self.peak_heap = 0
        self.by_callsite: dict[str, int] = {}

    @property
    def events(self) -> int:
        return tally(self.by_callsite.values())

    def top_callsites(self, n: int = 10) -> list[tuple[str, int]]:
        ranked = sorted(self.by_callsite.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def summary(self) -> dict:
        """JSON-ready snapshot (what --profile writes to the artifact dir)."""
        return {
            "events": self.events,
            "batches": self.batches,
            "events_per_batch": round(self.events / self.batches, 3) if self.batches else 0.0,
            "peak_heap": self.peak_heap,
            "top_callsites": self.top_callsites(),
        }


# When set (by capture_stats), every Engine constructed auto-enables
# its EngineStats and appends it here, so profiling needs no plumbing
# through the layers that build engines (driver, service, orchestrator).
_STATS_SINK: list[EngineStats] | None = None


@contextmanager
def capture_stats(sink: list[EngineStats] | None = None):
    """Collect an :class:`EngineStats` from every engine built inside.

    Process-local (in-process sweeps and single trainings only): sweep
    workers in other processes never see the sink, which is why
    ``repro.cli sweep --profile`` forces ``--jobs 1``.
    """
    global _STATS_SINK
    if sink is None:
        sink = []
    prev = _STATS_SINK
    _STATS_SINK = sink
    try:
        yield sink
    finally:
        _STATS_SINK = prev


class Process:
    """A simulated thread of execution with its own time breakdown."""

    def __init__(self, generator: ProcessGenerator, name: str, daemon: bool = False):
        self.generator = generator
        self.name = name
        self.daemon = daemon
        self.state = _READY
        self.result: Any = None
        self.exception: BaseException | None = None
        self.trace = TimeBreakdown()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.joiners: list[Callable[[], None]] = []
        # Token invalidating stale wake-up events after a kill.
        self._wake_token = 0
        # Storage wait this process is currently registered on, if any:
        # (store, prefix). Lets kill() cancel it at the store so a later
        # put neither bills polls for nor wakes a dead process.
        self._pending_wait: tuple | None = None

    @property
    def alive(self) -> bool:
        return self.state in _ALIVE_STATES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process({self.name!r}, {self.state.value})"


class Engine:
    """Deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self.now = 0.0  # the simulated clock (s): only run() stores into it
        self._alive: dict[Process, None] = {}  # live processes, in spawn order
        # The future: a heap of the distinct queued instants, and each
        # instant's events in scheduling order. Every queued instant is
        # later than now, and is on the heap iff it has a list. `_queued`
        # counts the events on all the lists, so a batch reads the
        # pending count for EngineStats in O(1).
        self._times: list[float] = []
        self._at: dict[float, list[tuple[Callable[..., None], tuple]]] = {}
        self._queued = 0
        # Events at the current instant, in scheduling order: the one
        # queue run() dispatches from.
        self._fifo: deque[tuple[Callable[..., None], tuple]] = deque()
        # Optional event-count profile (enable_stats); None = disabled.
        self.stats: EngineStats | None = None
        if _STATS_SINK is not None:
            _STATS_SINK.append(self.enable_stats())
        # Daemons (fault monitors) never keep the simulation alive: the
        # run loop stops once every non-daemon process has finished,
        # even if daemon wake-ups remain queued — otherwise a monitor
        # sleeping toward a crash that will never happen would drag the
        # simulated clock past the end of the job. `_over` is that test,
        # kept by spawn and _retire so the loop reads one flag per event.
        self._nondaemon_alive = 0
        self._over = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def spawn(
        self,
        generator: ProcessGenerator,
        name: str,
        delay: float = 0.0,
        daemon: bool = False,
    ) -> Process:
        """Register a new process; its first step runs `delay` s from now."""
        if not 0.0 <= delay < _INF:  # also rejects NaN
            raise SimulationError(f"{name}: invalid delay {delay!r}")
        proc = Process(generator, name, daemon=daemon)
        self._alive[proc] = None
        if not daemon:
            self._nondaemon_alive += 1
            self._over = False  # a process spawned after the job ended re-arms the loop
        if delay:
            self._schedule(self.now + delay, self._first_step, proc)
        else:  # _schedule's same-instant path, inline
            self._fifo.append((self._first_step, (proc,)))
        return proc

    def enable_stats(self) -> EngineStats:
        """Attach (or return the existing) event-count profile."""
        if self.stats is None:
            self.stats = EngineStats()
        return self.stats

    def run(self, until: float | None = None) -> None:
        """Process events until the queue drains (or `until` is reached).

        Raises :class:`DeadlockError` if non-daemon processes remain
        blocked with no event that could ever wake them.

        Dispatch is batched per simulated instant. When the FIFO is
        empty, the earliest queued instant t is popped, the clock
        advances to t and t's list moves onto the FIFO; the FIFO is
        then drained, including the events the batch itself schedules
        at t (zero-delay resumes, same-instant lookups), which are
        appended behind. That is scheduling order: t's list holds its
        events in the order they were queued, all of them before the
        batch began, and nothing is queued at t once the clock reads t
        (`_schedule` sends it to the FIFO). The FIFO is non-empty only
        at the current instant, which never has a queued list, so the
        FIFO is the only drain loop. Every event is removed from its
        queue before it runs, so an exception leaving run() leaves no
        dispatched event behind.

        `until` is None (run to the end), a finite instant at or after
        ``now``, or ``inf``; NaN or an instant in the past is a
        :class:`SimulationError` before anything is dispatched.
        """
        if until is not None and not until >= self.now:  # also rejects NaN
            raise SimulationError(
                f"run(until={until!r}): must be at or after now ({self.now!r})"
            )
        # Bind the hot callables once instead of per event.
        times = self._times
        at = self._at
        fifo = self._fifo
        popleft = fifo.popleft
        stats = self.stats
        calls = None if stats is None else stats.by_callsite
        while fifo or times:
            if self._over:
                # Only daemon events remain; the job itself is over.
                break
            # A non-empty FIFO here (spawns made outside run(), a run()
            # resumed after an exception) is a batch at the current time.
            if not fifo:
                t = times[0]
                if until is not None and t > until:
                    # The instant stays queued, list and all, for a resumed run().
                    # `until` is at or after now, checked on entry.
                    self.now = until
                    return
                heappop(times)
                self.now = t  # a queued instant is later than now
                bucket = at.pop(t)
                self._queued -= len(bucket)
                fifo.extend(bucket)
            if stats is not None:
                stats.batches += 1
                stats.peak_heap = max(stats.peak_heap, self._queued + len(fifo))
            while fifo:
                if self._over:
                    break
                fn, args = popleft()
                if calls is not None:
                    name = fn.__qualname__  # every event is a bound method
                    calls[name] = calls.get(name, 0) + 1
                fn(*args)
        alive = self._alive
        stuck = [p for p in alive if p.state is _BLOCKED and not p.daemon]
        if stuck:
            names = ", ".join(p.name for p in stuck[:8])
            # Only a live process holds a storage wait: kill clears it.
            on_store = tally(p._pending_wait is not None for p in alive)
            raise DeadlockError(
                f"{len(stuck)} process(es) blocked with no pending events "
                f"({on_store} waiting on storage): {names}"
            )
        # Over a snapshot: kill retires, which deletes from `_alive`.
        for proc in [p for p in alive if p.daemon]:
            self.kill(proc)

    def kill(self, proc: Process) -> None:
        """Terminate a process immediately (fault injection, daemons)."""
        if not proc.alive:
            return
        proc._wake_token += 1
        proc.state = ProcessState.KILLED
        proc.finished_at = self.now
        self._retire(proc)
        if proc._pending_wait is not None:
            store, prefix = proc._pending_wait
            proc._pending_wait = None
            store.cancel_wait(prefix, proc)
        proc.generator.close()
        self._wake_joiners(proc)

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------
    def _schedule(self, at: float, fn: Callable[..., None], *args: Any) -> None:
        now = self.now
        if at <= now:
            if at < now - 1e-12:
                raise SimulationError(f"cannot schedule event in the past: {at} < {now}")
            self._fifo.append((fn, args))
        else:
            bucket = self._at.get(at)
            if bucket is None:
                self._at[at] = [(fn, args)]
                heappush(self._times, at)
            else:
                bucket.append((fn, args))
            self._queued += 1

    def _first_step(self, proc: Process) -> None:
        if proc.state is not _READY:
            return
        proc.started_at = self.now
        self._step(proc, None, None)

    def _step(self, proc: Process, send_value: Any, throw: BaseException | None) -> None:
        """Advance the generator one command and run its handler.

        The caller has made the alive check: ``_first_step`` (READY),
        ``_fire``, ``_next_put`` and ``_next_get`` (token and BLOCKED).
        """
        proc.state = _RUNNING
        try:
            if throw is not None:
                command = proc.generator.throw(throw)
            else:
                command = proc.generator.send(send_value)
        except StopIteration as stop:
            proc.state = _DONE
            proc.result = stop.value
            proc.finished_at = self.now
            self._retire(proc)
            self._wake_joiners(proc)
            return
        except BaseException as exc:  # noqa: BLE001 - recorded, then re-raised
            self._fail(proc, exc)
            raise
        proc.state = _BLOCKED
        proc._wake_token += 1
        # Exact-type table lookup: one dict probe per yielded command
        # instead of walking an isinstance chain.
        handler = _DISPATCH_TABLE.get(type(command))
        try:
            if handler is None:
                raise SimulationError(f"{proc.name}: unknown command {command!r}")
            handler(self, proc, command)
        except BaseException as exc:  # noqa: BLE001 - a refused command
            if proc.alive:  # a PutEach's first put fails it in _next_put
                self._fail(proc, exc)
            raise

    def _resume_later(
        self, proc: Process, at: float, value: Any = None, throw: BaseException | None = None
    ) -> None:
        self._schedule(at, self._fire, proc, proc._wake_token, value, throw)

    def _resume_now(
        self, proc: Process, value: Any = None, throw: BaseException | None = None
    ) -> None:
        """Resume `proc` at the current instant: straight onto the FIFO."""
        self._fifo.append((self._fire, (proc, proc._wake_token, value, throw)))

    def _fire(self, proc: Process, token: int, value: Any, throw: BaseException | None) -> None:
        if proc._wake_token != token or proc.state is not _BLOCKED:
            return  # stale wake-up: the process was killed or already resumed
        self._step(proc, value, throw)

    def _fail(self, proc: Process, exc: BaseException) -> None:
        """End `proc` as FAILED with `exc`: its generator raised, or the
        engine refused the command it yielded. The generator is closed
        and its joiners are thrown `exc`, so the process neither stays
        blocked nor reads as a deadlock on a resumed run()."""
        proc.state = _FAILED
        proc.exception = exc
        proc.finished_at = self.now
        self._retire(proc)
        proc.generator.close()
        self._wake_joiners(proc)

    def _retire(self, proc: Process) -> None:
        """Account one alive->terminal transition (DONE/FAILED/KILLED)."""
        del self._alive[proc]
        if not proc.daemon:
            self._nondaemon_alive -= 1
            self._over = not self._nondaemon_alive

    def _wake_joiners(self, proc: Process) -> None:
        if not proc.joiners:
            return
        joiners, proc.joiners = proc.joiners, []
        for wake in joiners:
            wake()

    # ------------------------------------------------------------------
    # Command dispatch
    # ------------------------------------------------------------------
    def _dispatch_timed(self, proc: Process, command: Sleep | Compute) -> None:
        # The one check of a timed command's duration (NaN fails it), so
        # its charge skips TimeBreakdown.add's.
        duration = command.duration
        if not 0.0 <= duration < _INF:
            raise SimulationError(f"{proc.name}: invalid duration {duration!r}")
        proc.trace.seconds[command.category] += duration
        self._schedule(self.now + duration, self._fire, proc, proc._wake_token, None, None)

    # -- storage ---------------------------------------------------------
    def _dispatch_put(self, proc: Process, cmd: Put) -> None:
        self._put(proc, cmd, cmd.key, cmd.value, None, None)

    def _dispatch_put_each(self, proc: Process, cmd: PutEach) -> None:
        self._next_put(proc, proc._wake_token, cmd, iter(cmd.items), [])

    def _put(self, proc: Process, cmd, key: str, value: Any, rest, done) -> None:
        if value.__class__ is not SizedPayload:
            raise SimulationError(
                f"{proc.name}: put of {key!r} carries no size; "
                f"send SizedPayload(value, nbytes), got {type(value).__name__}"
            )
        nbytes = value.nbytes
        now = self.now
        try:
            end = cmd.store.book("put", nbytes, now, proc.trace, cmd.category)
        except TransientStorageError as exc:
            self._resume_later(proc, exc.failed_at, throw=exc)
            return
        # _schedule, inline: a booked op never completes before it was issued.
        args = (proc, cmd, key, value, nbytes, rest, done)
        if end > now:
            bucket = self._at.get(end)
            if bucket is None:
                self._at[end] = [(self._apply_put, args)]
                heappush(self._times, end)
            else:
                bucket.append((self._apply_put, args))
            self._queued += 1
        else:
            self._fifo.append((self._apply_put, args))

    def _apply_put(self, proc: Process, cmd, key: str, value: Any, nbytes: int, rest, done):
        now = self.now
        for wake in cmd.store._do_put(key, value):
            wake(now)
        if done is None:
            self._resume_now(proc, nbytes)
        else:
            done.append(nbytes)
            self._fifo.append((self._next_put, (proc, proc._wake_token, cmd, rest, done)))

    def _next_put(self, proc: Process, token: int, cmd: PutEach, rest, done: list) -> None:
        if proc._wake_token != token or proc.state is not _BLOCKED:
            return  # stale, like _fire's: killed mid-sequence
        item = next(rest, None)
        if item is not None:
            key, value = item
            try:
                self._put(proc, cmd, key, value, rest, done)
            except BaseException as exc:  # noqa: BLE001 - a refused put
                self._fail(proc, exc)
                raise
        elif done:
            self._step(proc, done, None)
        else:
            raise SimulationError(f"{proc.name}: empty PutEach")

    def _dispatch_get(self, proc: Process, cmd: Get) -> None:
        # Size is only known at completion; we first charge the latency,
        # then the transfer of the actual object found at completion. The
        # lookup is a same-instant event of its own: it sees every write
        # already queued for this instant.
        self._fifo.append((self._apply_get, (proc, cmd, cmd.key, self.now, None, None)))

    def _dispatch_get_each(self, proc: Process, cmd: GetEach) -> None:
        self._next_get(proc, proc._wake_token, cmd, iter(cmd.keys), [])

    def _apply_get(self, proc: Process, cmd, key: str, issued: float, rest, done) -> None:
        if proc.state is not _BLOCKED:
            # Blocked on this very op while alive; anything else means it
            # was killed while the request was in flight.
            return
        store = cmd.store
        try:
            value = store._do_get(key)
        except KeyNotFoundError as exc:
            self._resume_now(proc, throw=exc)
            return
        try:
            end = store.book("get", value.nbytes, issued, proc.trace, cmd.category)
        except TransientStorageError as exc:
            self._resume_later(proc, exc.failed_at, throw=exc)
            return
        now = self.now
        if done is None:
            self._resume_later(proc, max(end, now), value=value)
        else:
            done.append(value)
            # _schedule(max(end, now), ...), inline.
            args = (proc, proc._wake_token, cmd, rest, done)
            if end > now:
                bucket = self._at.get(end)
                if bucket is None:
                    self._at[end] = [(self._next_get, args)]
                    heappush(self._times, end)
                else:
                    bucket.append((self._next_get, args))
                self._queued += 1
            else:
                self._fifo.append((self._next_get, args))

    def _next_get(self, proc: Process, token: int, cmd: GetEach, rest, done: list) -> None:
        if proc._wake_token != token or proc.state is not _BLOCKED:
            return  # stale, like _fire's: killed mid-sequence
        key = next(rest, None)
        if key is not None:
            self._fifo.append((self._apply_get, (proc, cmd, key, self.now, rest, done)))
        elif done:
            self._step(proc, done, None)
        else:
            raise SimulationError(f"{proc.name}: empty GetEach")

    def _dispatch_list(self, proc: Process, cmd: ListKeys) -> None:
        end = cmd.store.book("list", 0, self.now, proc.trace, cmd.category)
        self._schedule(end, self._apply_list, proc, cmd)

    def _apply_list(self, proc: Process, cmd: ListKeys) -> None:
        self._resume_now(proc, cmd.store._do_list(cmd.prefix))

    # -- waiting on storage state ----------------------------------------
    def _waker(
        self, proc: Process, cmd: WaitKeyCount, issued: float
    ) -> Callable[[float], None]:
        """The callback that ends `cmd`'s wait once its condition is visible.

        Called directly (from the dispatcher or ``_apply_put``), never
        scheduled, so it is not an event of its own.
        """
        interval = cmd.poll_interval
        if not 0.0 < interval < math.inf:
            raise SimulationError(f"{proc.name}: invalid poll_interval {interval!r}")

        def wake(visible_at: float) -> None:
            proc._pending_wait = None
            wake_at = max(visible_at, issued) + interval
            waited = wake_at - issued
            cmd.store.record_polls(max(1, math.ceil(waited / interval)))
            proc.trace.add(cmd.category, waited)
            self._resume_later(proc, wake_at)

        return wake

    def _dispatch_wait_count(self, proc: Process, cmd: WaitKeyCount) -> None:
        issued = self.now
        wake = self._waker(proc, cmd, issued)
        if cmd.store.wait_for_count(cmd.prefix, cmd.count, wake, proc):
            proc._pending_wait = (cmd.store, cmd.prefix)
        else:
            wake(issued)

    # -- join / collectives ------------------------------------------------
    def _dispatch_join(self, proc: Process, cmd: Join) -> None:
        target = cmd.process
        issued = self.now

        def wake() -> None:
            if not proc.alive:
                return  # joiner was killed while waiting
            proc.trace.add(cmd.category, self.now - issued)
            if target.state is ProcessState.FAILED and target.exception is not None:
                self._resume_now(proc, throw=target.exception)
            else:
                self._resume_now(proc, target.result)

        if target.alive:
            target.joiners.append(wake)
        else:
            wake()

    def _dispatch_collective(self, proc: Process, cmd: Collective) -> None:
        group = cmd.group
        round_id = group.round_counter.get(proc.name, 0)
        group.round_counter[proc.name] = round_id + 1
        pending = group.pending.setdefault(round_id, [])
        pending.append((proc, cmd.nbytes, self.now, cmd.category))
        if len(pending) < group.size:
            return
        # Last member arrived: charge the time model once (sized by the
        # largest contribution) and wake everyone at the same instant.
        del group.pending[round_id]
        nbytes = max(size for _, size, _, _ in pending)
        duration = group.time_fn(nbytes, group.size) if group.time_fn is not None else 0.0
        t_last = max(arrived for _, _, arrived, _ in pending)
        completion = t_last + duration
        for member, _, arrived, category in pending:
            member.trace.add("wait", t_last - arrived)
            member.trace.add(category, duration)
            self._resume_later(member, completion)


# Unbound handlers keyed by exact command type (see Engine._step).
_DISPATCH_TABLE: dict[type, Callable[[Engine, Process, Any], None]] = {
    Sleep: Engine._dispatch_timed,
    Compute: Engine._dispatch_timed,
    Put: Engine._dispatch_put,
    Get: Engine._dispatch_get,
    PutEach: Engine._dispatch_put_each,
    GetEach: Engine._dispatch_get_each,
    ListKeys: Engine._dispatch_list,
    WaitKeyCount: Engine._dispatch_wait_count,
    Join: Engine._dispatch_join,
    Collective: Engine._dispatch_collective,
}
