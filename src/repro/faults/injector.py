"""The fault injector: kills simulated workers and respawns successors.

One :class:`FaultInjector` is installed per run (by the driver, only
when the config's fault axes are non-trivial). It spawns *daemon*
monitor processes on the engine — one per FaaS worker, one global one
for an IaaS cluster — that sleep until the plan's next crash instant
and then terminate the victim mid-generator with ``engine.kill``.

Recovery follows the platform's real contract:

* **FaaS (LambdaML)** — each worker checkpoints to S3 at every round
  boundary (the Figure-5 machinery, now driven per-round instead of
  only near the 15-minute wall). The successor incarnation pays a
  cold start (with the plan's deterministic jitter), re-loads its data
  partition and the checkpoint, and resumes the BSP loop from the
  checkpointed :class:`~repro.core.bsp_loop.RoundState`. That state is
  the rank's whole position — a replayed rank reads its statistics by
  evaluation index and keeps no other state — so the re-executed
  rounds read the dead incarnation's losses bit for bit: a faulted
  run's loss trajectory is identical to the fault-free one; only
  clocks and dollars move.
* **IaaS (distributed PyTorch)** — there is no checkpoint: a worker
  crash kills the job and the cluster restarts training from scratch
  (the restart-from-scratch baseline of the cost-of-reliability
  comparison). The injector kills every worker, resets the collective
  groups, clears the loss history, and respawns the whole cohort from
  round 0.

Loss records a dead incarnation made after its last durable checkpoint
are rolled back before the successor starts, so every evaluation lands
in ``RunResult.history`` exactly once with exactly the fault-free
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import FaultInjectionError
from repro.faas.runtime import REINVOKE_OVERHEAD_S
from repro.faults.plan import FaultPlan
from repro.simulation.commands import Sleep

if TYPE_CHECKING:  # pragma: no cover - core imports faults at runtime
    from repro.core.bsp_loop import RoundState


@dataclass(frozen=True)
class WorkerResume:
    """Everything a respawned FaaS incarnation needs to continue."""

    incarnation: int  # 1-based; the initial invocation is 1
    cold_start_s: float  # successor start-up latency (plan-jittered)
    round_state: "RoundState | None"  # None: no durable checkpoint yet


class FaultInjector:
    """Drives the crash/recovery half of a :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.crashes = 0  # workers killed
        self.respawns = 0  # FaaS successor incarnations spawned
        self.restarts = 0  # IaaS whole-job restarts
        self.recovery_checkpoints = 0  # per-round checkpoints persisted
        # Each rank's latest durable checkpoint.
        self._recovery: dict[int, "RoundState"] = {}
        self._generation = 1  # IaaS whole-job attempt number
        self._ctx = None
        self._executor: Callable | None = None
        self._origin = 0.0  # engine instant the job started at
        self._name_prefix = ""  # worker-name prefix (service tenants)

    # ------------------------------------------------------------------
    # Wiring (driver side)
    # ------------------------------------------------------------------
    @property
    def crashes_enabled(self) -> bool:
        return self.plan.crashes_enabled

    def install(self, ctx, executor: Callable, name_prefix: str = "") -> None:
        """Bind to the job and spawn the crash monitors."""
        self._ctx = ctx
        self._executor = executor
        self._name_prefix = name_prefix
        # The plan's crash instants are job-relative; on a shared
        # service engine the job may start at t > 0, so monitors offset
        # them by the install instant. Zero for classic isolated runs.
        self._origin = ctx.engine.now
        if not self.crashes_enabled:
            return
        config = ctx.config
        if config.protocol != "bsp" or config.platform not in ("faas", "iaas"):
            raise FaultInjectionError(
                "crash injection is defined for BSP FaaS/IaaS runs; "
                f"got {config.protocol}/{config.platform}"
            )
        if config.platform == "faas":
            for rank in range(config.workers):
                ctx.engine.spawn(
                    self._faas_monitor(rank),
                    f"{name_prefix}fault-monitor-{rank}",
                    daemon=True,
                )
        else:
            ctx.engine.spawn(
                self._iaas_monitor(), f"{name_prefix}fault-monitor", daemon=True
            )

    # ------------------------------------------------------------------
    # Executor-side hooks (FaaS recovery checkpoints)
    # ------------------------------------------------------------------
    def should_checkpoint(self, rank: int, rounds: int) -> bool:
        """Persist a recovery checkpoint at this round boundary?

        Only boundaries on the config's ``checkpoint_interval`` grid
        qualify (1 = every round, the MLLess-style default; wider
        intervals trade checkpoint I/O for re-executed rounds after a
        crash). True at most once per boundary: a successor resuming
        *at* its checkpointed round skips re-writing the checkpoint it
        just restored from.
        """
        if not self.crashes_enabled:
            return False
        if rounds % self._ctx.config.checkpoint_interval != 0:
            return False
        recovery = self._recovery.get(rank)
        return recovery is None or recovery.rounds != rounds

    def save_recovery(self, rank: int, state: "RoundState") -> None:
        """Note that `rank`'s checkpoint for `state` is now durable."""
        self._recovery[rank] = state
        self.recovery_checkpoints += 1
        self._advance_gc_floor()

    def _advance_gc_floor(self) -> None:
        """Collect round files no successor can ever re-execute.

        A FaaS checkpoint at round r means that rank's successor resumes
        *at* r and re-executes rounds >= r; rounds strictly below the
        minimum checkpointed round across *all* ranks are therefore dead.
        Until every rank has at least one durable checkpoint the floor
        cannot move (an uncheckpointed rank would restart from round 0).
        """
        ctx = self._ctx
        if ctx.config.platform != "faas":
            return
        if len(self._recovery) < ctx.config.workers:
            return
        floor = min(state.rounds for state in self._recovery.values())
        stores = [ctx.data_store]
        if ctx.channel is not None:
            stores.append(ctx.channel.store)
        for store in stores:
            if store.retention is not None and floor > store.retention.floor:
                store.retention.advance(store, floor)

    # ------------------------------------------------------------------
    # Monitors (engine daemon processes)
    # ------------------------------------------------------------------
    def _faas_monitor(self, rank: int):
        """Kill worker `rank` at each crash instant; respawn a successor."""
        ctx = self._ctx
        engine = ctx.engine
        for crash_at in self.plan.crash_times(rank):
            delay = self._origin + crash_at - engine.now
            if delay > 0:
                yield Sleep(delay, "idle")
            proc = ctx.worker_procs[rank]
            if not proc.alive:
                return  # the worker outlived its hazard
            engine.kill(proc)
            self.crashes += 1
            self._respawn(rank)

    def _iaas_monitor(self):
        """Any worker crash restarts the whole cluster from scratch."""
        ctx = self._ctx
        engine = ctx.engine
        workers = ctx.config.workers
        streams = [self.plan.crash_times(rank) for rank in range(workers)]
        upcoming = [next(stream) for stream in streams]
        while True:
            rank = min(range(workers), key=lambda r: upcoming[r])
            crash_at = upcoming[rank]
            upcoming[rank] = next(streams[rank])
            delay = self._origin + crash_at - engine.now
            if delay > 0:
                yield Sleep(delay, "idle")
            procs = [ctx.worker_procs[r] for r in range(workers)]
            if not any(p.alive for p in procs):
                return  # job already finished
            for proc in procs:
                engine.kill(proc)
            self.crashes += 1
            self.restarts += 1
            # Restart from scratch: fresh collective rendezvous, empty
            # loss log — the new attempt starts at round 0 and
            # re-produces every record with fault-free values.
            ctx.mpi.reset()
            ctx.history.clear()
            self._generation += 1
            generation = self._generation
            for r in range(workers):
                successor = engine.spawn(
                    self._executor(ctx, r),
                    name=f"{self._name_prefix}worker-{r}#{generation}",
                )
                ctx.worker_procs[r] = successor
                ctx.all_worker_procs.append(successor)

    # ------------------------------------------------------------------
    # FaaS respawn (shared by the crash monitor and executor-side recovery)
    # ------------------------------------------------------------------
    def _respawn(self, rank: int) -> None:
        """Spawn `rank`'s successor incarnation from its last checkpoint.

        The dead incarnation must already be finished (killed by the
        monitor, or ended by its own recovery hand-off); loss records it
        made past the last durable checkpoint are rolled back here and
        re-recorded — with bit-identical values — by the successor.
        """
        ctx = self._ctx
        state = self._recovery.get(rank)
        # Each evaluation the rank read left one record.
        self._truncate_history(rank, state.evaluations if state else 0)
        incarnation = ctx.next_invocation(rank)
        resume = WorkerResume(
            incarnation=incarnation,
            cold_start_s=self.plan.cold_start_s(
                rank, incarnation, REINVOKE_OVERHEAD_S
            ),
            round_state=state,
        )
        successor = ctx.engine.spawn(
            self._executor(ctx, rank, resume),
            name=f"{self._name_prefix}worker-{rank}#{incarnation}",
        )
        self.respawns += 1
        ctx.worker_procs[rank] = successor
        ctx.all_worker_procs.append(successor)

    def recover_from_storage_exhaustion(self, rank: int) -> None:
        """Executor-side recovery: retries exhausted mid-run killed `rank`.

        A LambdaML worker whose storage op fails past the retry budget
        dies exactly like a crashed one — the difference is that the
        worker generator sees the error itself (thrown in by the
        engine) and hands off here before returning, instead of being
        killed by a monitor. Only meaningful on FaaS runs with crash
        recovery active (per-round checkpoints are being written).
        """
        if self._ctx is None or self._ctx.config.platform != "faas":
            raise FaultInjectionError(
                "storage-exhaustion recovery requires an installed FaaS injector"
            )
        self._respawn(rank)

    # ------------------------------------------------------------------
    def _truncate_history(self, rank: int, keep: int) -> None:
        """Drop the loss records `rank` made past its first `keep`."""
        kept = []
        seen = 0
        for point in self._ctx.history:
            if point.worker == rank:
                seen += 1
                if seen > keep:
                    continue
            kept.append(point)
        self._ctx.history[:] = kept

    def events(self) -> dict:
        """Structured summary for ``RunResult.meta`` / sweep artifacts."""
        return {
            "crashes": self.crashes,
            "reincarnations": self.respawns,
            "restarts": self.restarts,
            "recovery_checkpoints": self.recovery_checkpoints,
        }
