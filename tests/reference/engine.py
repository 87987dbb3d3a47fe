"""Reference engine: one heap of ``(time, seq, fn, args)`` and nothing else.

Written from README's contract, slow on purpose. Processes are
generators yielding :mod:`repro.simulation.commands`. Every event, a
zero-delay one too, draws a seq and goes through the one heap, so
dispatch is in (time, seq) order by construction. A storage-op
sequence is literally its ops: after each item the process is resumed
at the item's completion and issues the next one. A storage op's data
effect lands at its completion; a lookup happens at its issue instant.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict

from repro.errors import DeadlockError, KeyNotFoundError, SimulationError, TransientStorageError
from repro.simulation.commands import (
    Collective, Compute, Get, GetEach, Join, ListKeys, Put, PutEach, Sleep, WaitKeyCount,
)

ALIVE = ("ready", "running", "blocked")


class RefProcess:
    def __init__(self, generator, name: str, daemon: bool) -> None:
        self.generator = generator
        self.name = name
        self.daemon = daemon
        self.state = "ready"
        self.result = None
        self.exception = None
        self.trace: dict[str, float] = defaultdict(float)
        self.started_at = None
        self.finished_at = None
        self.joiners: list = []
        # Bumped whenever the process blocks and when it is killed: a
        # resume carrying an older epoch is stale.
        self.epoch = 0
        # (command type, command, item iterator, results) of a sequence.
        self.items = None
        self.waiting_on = None  # the store holding its wait, if any

    @property
    def alive(self) -> bool:
        return self.state in ALIVE


class RefEngine:
    def __init__(self) -> None:
        self.now = 0.0
        self.heap: list = []
        self.seq = 0
        self.processes: list[RefProcess] = []
        self.over = False  # every non-daemon process has finished
        self.arrivals: dict = {}  # (group, round) -> [(process, value, instant, category)]
        self.rounds: dict = defaultdict(int)  # (group, process) -> rounds joined

    def at(self, t: float, fn, *args) -> None:
        heapq.heappush(self.heap, (max(t, self.now), self.seq, fn, args))
        self.seq += 1

    def spawn(self, generator, name: str, delay: float = 0.0, daemon: bool = False):
        if not 0.0 <= delay < math.inf:
            raise SimulationError(f"{name}: invalid delay {delay!r}")
        proc = RefProcess(generator, name, daemon)
        self.processes.append(proc)
        if not daemon:
            self.over = False
        self.at(self.now + delay, self._start, proc)
        return proc

    def run(self) -> None:
        while self.heap and not self.over:
            t, _, fn, args = heapq.heappop(self.heap)
            self.now = t
            fn(*args)
        stuck = [p for p in self.processes if p.state == "blocked" and not p.daemon]
        if stuck:
            on_store = sum(p.waiting_on is not None for p in self.processes)
            names = ", ".join(p.name for p in stuck[:8])
            raise DeadlockError(
                f"{len(stuck)} process(es) blocked with no pending events "
                f"({on_store} waiting on storage): {names}"
            )
        for proc in self.processes:
            if proc.daemon and proc.alive:
                self.kill(proc)

    def kill(self, proc: RefProcess) -> None:
        if not proc.alive:
            return
        proc.epoch += 1
        proc.state = "killed"
        proc.finished_at = self.now
        self._retire(proc)
        if proc.waiting_on is not None:
            proc.waiting_on.cancel_waits(proc)
            proc.waiting_on = None
        proc.generator.close()
        self._wake_joiners(proc)

    # -- process life ------------------------------------------------------
    def _start(self, proc: RefProcess) -> None:
        if proc.state == "ready":
            proc.started_at = self.now
            self._step(proc)

    def _step(self, proc: RefProcess, value=None, error=None) -> None:
        if not proc.alive:
            return
        proc.state = "running"
        try:
            command = proc.generator.send(value) if error is None else proc.generator.throw(error)
        except StopIteration as stop:
            self._end(proc, "done", stop.value, None)
            return
        except BaseException as exc:  # noqa: BLE001 - recorded, then re-raised
            self._end(proc, "failed", None, exc)
            raise
        proc.state = "blocked"
        proc.epoch += 1
        self._refusable(proc, self._issue, command)

    def _refusable(self, proc: RefProcess, issue, *args) -> None:
        """Run `issue`; a command it refuses ends `proc` failed, then escapes."""
        try:
            issue(proc, *args)
        except BaseException as exc:  # noqa: BLE001 - recorded, then re-raised
            if proc.alive:
                self._end(proc, "failed", None, exc)
                proc.generator.close()
            raise

    def _end(self, proc: RefProcess, state: str, result, exception) -> None:
        proc.state = state
        proc.result = result
        proc.exception = exception
        proc.finished_at = self.now
        self._retire(proc)
        self._wake_joiners(proc)

    def _retire(self, proc: RefProcess) -> None:
        if not proc.daemon:
            self.over = not any(p.alive and not p.daemon for p in self.processes)

    def _wake_joiners(self, proc: RefProcess) -> None:
        joiners, proc.joiners = proc.joiners, []
        for wake in joiners:
            wake()

    def _resume(self, proc: RefProcess, epoch: int, value, error) -> None:
        if proc.epoch != epoch or proc.state != "blocked":
            return
        if proc.items is None:
            self._step(proc, value, error)
        elif error is not None:
            proc.items = None
            self._step(proc, error=error)
        else:
            proc.items[3].append(value)
            self._refusable(proc, self._next_item)

    def _later(self, proc: RefProcess, t: float, value=None, error=None) -> None:
        self.at(t, self._resume, proc, proc.epoch, value, error)

    # -- commands ----------------------------------------------------------
    def _issue(self, proc: RefProcess, cmd) -> None:
        kind = type(cmd)
        if kind is Sleep or kind is Compute:
            if not 0.0 <= cmd.duration < math.inf:
                raise SimulationError(f"{proc.name}: invalid duration {cmd.duration!r}")
            proc.trace[cmd.category] += cmd.duration
            self._later(proc, self.now + cmd.duration)
        elif kind is Put:
            self._put(proc, cmd.store, cmd.key, cmd.value, cmd.category)
        elif kind is Get:
            self._get(proc, cmd.store, cmd.key, cmd.category)
        elif kind is PutEach or kind is GetEach:
            items = cmd.items if kind is PutEach else cmd.keys
            proc.items = (kind, cmd, iter(items), [])
            self._next_item(proc)
        elif kind is ListKeys:
            end = cmd.store.book("list", 0, self.now, proc.trace, cmd.category)
            self.at(end, self._list, proc, cmd)
        elif kind is WaitKeyCount:
            self._wait(proc, cmd)
        elif kind is Join:
            self._join(proc, cmd)
        elif kind is Collective:
            self._collective(proc, cmd)
        else:
            raise SimulationError(f"{proc.name}: unknown command {cmd!r}")

    def _next_item(self, proc: RefProcess) -> None:
        kind, cmd, items, results = proc.items
        item = next(items, None)
        if item is None:
            proc.items = None
            if not results:
                raise SimulationError(f"{proc.name}: empty {kind.__name__}")
            self._step(proc, results)
        elif kind is PutEach:
            self._put(proc, cmd.store, item[0], item[1], cmd.category)
        else:
            self._get(proc, cmd.store, item, cmd.category)

    def _put(self, proc, store, key, value, category) -> None:
        nbytes = value.nbytes
        try:
            end = store.book("put", nbytes, self.now, proc.trace, category)
        except TransientStorageError as exc:
            self._later(proc, exc.failed_at, error=exc)
            return
        self.at(end, self._land, proc, store, key, value, nbytes)

    def _land(self, proc, store, key, value, nbytes) -> None:
        for wake in store.put(key, value):
            wake(self.now)
        self._later(proc, self.now, nbytes)

    def _get(self, proc, store, key, category) -> None:
        self.at(self.now, self._lookup, proc, store, key, self.now, category)

    def _lookup(self, proc, store, key, issued, category) -> None:
        if proc.state != "blocked":
            return  # killed while the request was in flight
        try:
            value = store.get(key)
        except KeyNotFoundError as exc:
            self._later(proc, self.now, error=exc)
            return
        try:
            end = store.book("get", value.nbytes, issued, proc.trace, category)
        except TransientStorageError as exc:
            self._later(proc, exc.failed_at, error=exc)
            return
        self._later(proc, end, value)

    def _list(self, proc, cmd) -> None:
        self._later(proc, self.now, cmd.store.listing(cmd.prefix))

    def _wait(self, proc, cmd) -> None:
        issued = self.now

        def wake(visible_at: float) -> None:
            proc.waiting_on = None
            wake_at = max(visible_at, issued) + cmd.poll_interval
            waited = wake_at - issued
            cmd.store.record_polls(max(1, math.ceil(waited / cmd.poll_interval)))
            proc.trace[cmd.category] += waited
            self._later(proc, wake_at)

        if cmd.store.count(cmd.prefix) >= cmd.count:
            wake(issued)
        else:
            cmd.store.add_waiter(cmd, wake, proc)
            proc.waiting_on = cmd.store

    def _join(self, proc, cmd) -> None:
        target, issued = cmd.process, self.now

        def wake() -> None:
            if not proc.alive:
                return
            proc.trace[cmd.category] += self.now - issued
            if target.state == "failed" and target.exception is not None:
                self._later(proc, self.now, error=target.exception)
            else:
                self._later(proc, self.now, target.result)

        if target.alive:
            target.joiners.append(wake)
        else:
            wake()

    def _collective(self, proc, cmd) -> None:
        group = cmd.group
        index = self.rounds[group.name, proc.name]
        self.rounds[group.name, proc.name] += 1
        arrived = self.arrivals.setdefault((group.name, index), [])
        arrived.append((proc, cmd.nbytes, self.now, cmd.category))
        if len(arrived) < group.size:
            return
        del self.arrivals[group.name, index]
        nbytes = max(size for _, size, _, _ in arrived)
        duration = group.time_fn(nbytes, group.size) if group.time_fn is not None else 0.0
        last = max(t for _, _, t, _ in arrived)
        for member, _, t, category in arrived:
            member.trace["wait"] += last - t
            member.trace[category] += duration
            self._later(member, last + duration)
