"""The sweep loop: fan points over a process pool, persist, resume.

Design constraints:

* **Workers are pure.** :func:`run_task` takes one picklable
  :class:`_Task`, builds the ``TrainingConfig`` and runs ``train()``
  inside the child process, and returns a primitives-only artifact
  dict (plus, for recordings, a primitives-only trace dict). No
  simulator state crosses the process boundary, so serial and
  ``--jobs N`` sweeps produce byte-identical artifacts.
* **The parent owns the disk.** Artifacts and traces are written by
  the orchestrator as results stream back (through :mod:`repro.store`,
  atomically), never by pool workers, so a sweep directory sees one
  writer and an interrupt (Ctrl-C, OOM-killed child, dead CI box)
  leaves only whole files.
* **Worker death is a result, not a hang.** Each parallel task runs in
  its own child process with a dedicated result pipe; a worker that is
  OOM-killed or segfaults mid-task closes its pipe without a message,
  and the orchestrator marks that point failed-with-reason (recorded in
  :attr:`SweepRun.failed`) and keeps sweeping. Exceptions *raised* by a
  task still propagate, exactly like the serial path.
* **Resume is hash-addressed at both phases.** ``resume=True`` scans
  the sweep directory once and skips every point whose config hash
  already has a valid artifact; corrupt or partial files are treated
  as not-run and overwritten. It also skips the phase-0 recording of
  every statistical fingerprint that already has a valid
  ``traces/<stat_hash>.json``.

Every sweep runs in two phases. Most sweep axes (channel, pattern,
instance, poll interval, prices, Lambda sizing) move simulated clocks
and dollars but cannot change a BSP loss trajectory — the statistical
and systems axes of the design space are separable. Phase 0 therefore
groups the grid by ``TrainingConfig.stat_fingerprint()`` and runs *one*
exact (recording) training per unique fingerprint; phase 1 replays the
recorded trace for every other point in the group, yielding artifacts
bit-identical to exact trainings at ~zero numpy cost. Timing-coupled
configs (ASP, hybrid PS) have no systems-independent trajectory, so
they train exact. :func:`_classify` is that split, and the one
definition of it: :func:`plan_sweep` counts what it returns,
:func:`run_sweep` executes it. One exact training outside a sweep is
``train(point.config())``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import __version__ as repro_version
from repro.core.driver import train
from repro.errors import ConfigurationError
from repro.substrate import (
    ExactSubstrate,
    PerRankSubstrate,
    ReplaySubstrate,
    scan_traces,
    write_trace,
)
from repro.sweep.artifacts import artifact_from_result, scan_artifacts, write_artifact
from repro.sweep.grid import SweepPoint, dedupe_with_hashes


@dataclass
class SweepRun:
    """Outcome of one orchestrator invocation."""

    artifacts: list[dict] = field(default_factory=list)  # in point order
    ran: int = 0
    skipped: int = 0
    corrupt: list[str] = field(default_factory=list)
    # Points whose worker process died mid-task (OOM kill, segfault...):
    # dicts with index/label/config_hash/reason. Only ever non-empty for
    # jobs > 1 — an inline run dying takes the orchestrator with it.
    failed: list[dict] = field(default_factory=list)
    out_dir: str | None = None
    stat_groups: int = 0  # unique stat fingerprints among pending points
    recorded: int = 0  # phase-0 exact trainings that captured a trace
    replayed: int = 0  # phase-1 points served from a trace
    exact_runs: int = 0  # timing-coupled points, trained exact
    traces_dir: str | None = None


@dataclass(frozen=True)
class _Task:
    """One pool job: a sweep point plus the substrate to run it on."""

    index: int  # position in the deduped grid (progress display)
    point: SweepPoint
    mode: str = "exact"  # exact (per-rank: timing-coupled) | record | replay
    trace: dict | None = None  # required when mode == "replay"


def run_task(task: _Task) -> tuple[int, dict, dict | None]:
    """Execute one sweep task end to end (pool worker entry point)."""
    t0 = time.perf_counter()
    if task.mode == "record":
        substrate = ExactSubstrate()
    elif task.mode == "replay":
        substrate = ReplaySubstrate(task.trace)
    else:
        substrate = PerRankSubstrate()
    result = train(task.point.config(), substrate=substrate)
    artifact = artifact_from_result(
        task.point,
        result,
        wall_seconds=time.perf_counter() - t0,
        substrate=task.mode,
        compute_seconds=substrate.compute_seconds,
    )
    return task.index, artifact, substrate.trace if task.mode == "record" else None


def _pool_child(fn, task, conn) -> None:
    """Child-process entry point: run one task, ship result or error.

    The pipe is the worker's whole contract with the parent: an ``ok``
    message carries the result, an ``err`` message carries a raised
    exception, and a pipe that closes with *no* message means the
    process died (OOM killer, segfault) — which the parent turns into a
    failed-with-reason task instead of a hung or aborted run.
    """
    try:
        result = fn(task)
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        try:
            conn.send(("err", exc))
        except Exception:
            # Unpicklable exception: degrade to a type-preserving-ish
            # RuntimeError so the parent still aborts loudly.
            conn.send(("err", RuntimeError(f"{type(exc).__name__}: {exc}")))
        finally:
            conn.close()
        return
    conn.send(("ok", result))
    conn.close()


def run_resilient_pool(tasks, width: int, on_result, on_dead, fn=None) -> None:
    """Fan tasks over one-process-per-task workers; survive worker death.

    ``multiprocessing.Pool.imap_unordered`` hangs forever when a worker
    is SIGKILLed (the pool keeps waiting for a result that will never
    arrive), so parallel sweeps use dedicated child processes with one
    result pipe each: a pipe reaching EOF without a message *is* the
    death notice, reported as ``on_dead(task, reason)``. Children are
    non-daemonic, so a task may itself host a nested pool (a fuzz
    campaign worker running a pooled sweep does). An ``err`` message
    re-raises the child's exception here, after terminating the
    remaining workers — the same abort the serial path produces.

    ``fn`` must be a module-level callable (pickled by reference for
    the spawn start method); the sweep uses :func:`run_task` (the
    default, resolved at call time so tests can monkeypatch it), the
    fuzz campaign its scenario checker.
    """
    from multiprocessing.connection import wait as connection_wait

    if fn is None:
        fn = run_task
    ctx = _pool_context()
    queue = list(tasks)
    queue.reverse()  # pop() serves tasks in the original order
    live: dict = {}  # receiving pipe end -> (task, process)

    def launch() -> None:
        task = queue.pop()
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_pool_child, args=(fn, task, send_conn))
        proc.start()
        send_conn.close()  # the child holds the only sending end now
        live[recv_conn] = (task, proc)

    while queue and len(live) < width:
        launch()
    error: BaseException | None = None
    while live:
        for conn in connection_wait(list(live)):
            task, proc = live.pop(conn)
            try:
                message = conn.recv()
            except EOFError:
                message = None
            finally:
                conn.close()
            proc.join()
            if message is None:
                on_dead(task, f"worker process died mid-task (exit code {proc.exitcode})")
            elif message[0] == "ok":
                on_result(message[1])
            else:
                error = message[1]
            if error is None and queue:
                launch()
        if error is not None:
            break
    if error is not None:
        for conn, (task, proc) in live.items():
            proc.terminate()
            proc.join()
            conn.close()
        raise error


def _pool_context():
    """Fork when available (cheap, inherits pinned BLAS env), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _resolve_traces_dir(
    out_dir: str | os.PathLike | None, traces_dir: str | os.PathLike | None
):
    if traces_dir is not None:
        return Path(traces_dir)
    if out_dir is not None:
        return Path(out_dir) / "traces"
    return None  # in-memory sweep: traces live only for this invocation


def _classify(
    points: list[SweepPoint], hashes: list[str], configs: list, reused
) -> tuple[list[_Task], dict[str, list[_Task]]]:
    """Split the points not in ``reused`` into exact tasks and stat groups.

    ``reused`` holds the config hashes a resume already has artifacts
    for. Of the rest, every timing-coupled config trains exactly; the
    others are grouped by statistical fingerprint, in grid order — a
    group with no trace records its head and replays its tail, a group
    with one replays whole.
    """
    exact_tasks: list[_Task] = []
    stat_groups: dict[str, list[_Task]] = {}
    for index, (point, point_hash, config) in enumerate(zip(points, hashes, configs)):
        if point_hash in reused:
            continue
        if config.timing_coupled:
            exact_tasks.append(_Task(index, point))
        else:
            stat_groups.setdefault(config.stat_hash(), []).append(_Task(index, point))
    return exact_tasks, stat_groups


def plan_sweep(
    points: list[SweepPoint],
    out_dir: str | os.PathLike | None = None,
    traces_dir: str | os.PathLike | None = None,
    resume: bool = False,
) -> dict:
    """What a sweep *would* do, without running anything (``--dry-run``).

    Returns grid size, unique statistical fingerprints, how many
    artifacts/traces already exist on disk, and how many exact
    trainings and replays the invocation would pay for. ``resume``
    must match the planned invocation: on-disk artifacts and traces
    only count as done when the real run would reuse them too.
    """
    points, hashes, configs = dedupe_with_hashes(list(points))
    completed, corrupt = scan_artifacts(out_dir)
    traces_dir = _resolve_traces_dir(out_dir, traces_dir)
    traces, corrupt_traces = scan_traces(traces_dir)

    coupled, replayable = _classify(points, hashes, configs, {})
    reused, usable_traces = (completed, traces) if resume else ({}, {})
    exact_tasks, stat_groups = _classify(points, hashes, configs, reused)
    exact_needed = len(exact_tasks) + sum(
        1 for stat_hash in stat_groups if stat_hash not in usable_traces
    )
    pending = len(exact_tasks) + sum(len(tasks) for tasks in stat_groups.values())
    return {
        "points": len(points),
        "unique_stat_fingerprints": len(
            {configs[task.index].stat_hash() for task in coupled} | set(replayable)
        ),
        "timing_coupled_points": len(coupled),
        "artifacts_present": sum(1 for h in hashes if h in completed),
        "artifacts_corrupt": len(corrupt),
        "traces_present": sum(1 for h in replayable if h in traces),
        "traces_corrupt": len(corrupt_traces),
        "pending_points": pending,
        "exact_trainings_needed": exact_needed,
        "replays_needed": pending - exact_needed,
        "out_dir": None if out_dir is None else str(out_dir),
        "traces_dir": None if traces_dir is None else str(traces_dir),
    }


def run_sweep(
    points: list[SweepPoint],
    out_dir: str | os.PathLike | None = None,
    jobs: int = 1,
    resume: bool = False,
    progress=None,
    substrate: str = "auto",
    traces_dir: str | os.PathLike | None = None,
) -> SweepRun:
    """Record once per statistical fingerprint, replay the rest of the grid.

    Parameters
    ----------
    points:
        The grid. Duplicate config hashes are collapsed (first wins).
    out_dir:
        Where ``<hash>.json`` artifacts go. ``None`` keeps everything
        in memory (a throwaway ``Session(None)``, the figure scripts).
    jobs:
        Process-pool width. ``1`` runs inline in this process.
    resume:
        Skip points that already have a valid artifact in ``out_dir``.
    progress:
        Optional callable ``progress(message: str)`` for per-point
        status lines (the CLI passes one; the library default is quiet).
    substrate:
        Only ``"auto"``. The keyword is kept for its three callers in
        ``benchmarks/ledger/workloads.py``, which pass it explicitly.
    traces_dir:
        Where ``<stat_hash>.json`` traces go (default:
        ``<out_dir>/traces``; in-memory when ``out_dir`` is ``None``).
    """
    if substrate != "auto":
        raise ConfigurationError(
            f"unknown sweep substrate {substrate!r}: a sweep records once per "
            "statistical fingerprint and replays the rest ('auto'); one exact "
            "training is train(point.config())"
        )
    if resume and out_dir is None:
        raise ConfigurationError("resume=True requires an artifact directory")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")

    say = progress or (lambda message: None)
    points, hashes, configs = dedupe_with_hashes(list(points))

    completed: dict[str, dict] = {}
    corrupt: list[Path] = []
    if resume:
        in_grid = set(hashes)
        completed, found_corrupt = scan_artifacts(out_dir)
        for path in found_corrupt:
            # Only corrupt files that shadow a point of *this* grid get
            # re-run (and overwritten); foreign/stale ones are left
            # alone — e.g. leftovers from an older TrainingConfig whose
            # hashes no grid produces anymore.
            if path.stem in in_grid:
                corrupt.append(path)
                say(f"corrupt artifact {path.name}: will re-run that point")
            else:
                say(f"corrupt artifact {path.name} matches no point in this grid; ignored")

    by_hash: dict[str, dict] = {}
    for index, (point, point_hash) in enumerate(zip(points, hashes)):
        if point_hash in completed:
            artifact = completed[point_hash]
            recorded_version = artifact["meta"].get("engine_version")
            if recorded_version != repro_version:
                # The config hash can't see code changes; at least make
                # cross-version mixing visible (delete the artifact or
                # use a fresh --out to force a clean re-run).
                say(
                    f"warning: reusing {point_hash}.json from engine "
                    f"{recorded_version or 'unknown'} (running {repro_version})"
                )
            # Labels/tags are presentation metadata, deliberately
            # outside the hash. When a grid renames them, refresh the
            # stored copy so aggregate() always sees the current schema.
            current = {
                "experiment": point.experiment,
                "label": point.label,
                "tags": dict(point.tags),
            }
            if any(artifact[key] != value for key, value in current.items()):
                artifact = {**artifact, **current}
                write_artifact(out_dir, artifact)
                say(f"refreshed metadata of {point_hash}.json to match this grid")
            by_hash[point_hash] = artifact
            say(f"[{index + 1}/{len(points)}] {point.label}: skipped (artifact exists)")

    traces_dir = _resolve_traces_dir(out_dir, traces_dir)
    traces: dict[str, dict] = {}
    if resume:
        # Reusing a previously recorded trace is the same act of trust
        # as reusing a previously written artifact: both are opt-in via
        # resume. A non-resume sweep re-records everything (and
        # overwrites the stale files), so code changes cannot leak old
        # trajectories into fresh artifacts.
        traces, corrupt_traces = scan_traces(traces_dir)
        for path in corrupt_traces:
            say(f"corrupt trace {path.name}: that fingerprint will be re-recorded")
        for stat_hash, trace in traces.items():
            recorded_version = trace["meta"].get("engine_version")
            if recorded_version != repro_version:
                say(
                    f"warning: trace {stat_hash}.json was recorded by engine "
                    f"{recorded_version or 'unknown'} (running {repro_version})"
                )

    exact_tasks, stat_groups = _classify(points, hashes, configs, completed)
    record_tasks = [
        _Task(tasks[0].index, tasks[0].point, mode="record")
        for stat_hash, tasks in stat_groups.items()
        if stat_hash not in traces
    ]
    run = SweepRun(
        skipped=len(by_hash),
        corrupt=[str(p) for p in corrupt],
        out_dir=None if out_dir is None else str(out_dir),
        stat_groups=len(stat_groups),
        recorded=len(record_tasks),
        exact_runs=len(exact_tasks),
        traces_dir=None if traces_dir is None else str(traces_dir),
    )

    def finish(message: tuple) -> None:
        """Persist one task's result as it streams back (artifact, trace)."""
        index, artifact, trace = message
        by_hash[artifact["config_hash"]] = artifact
        if out_dir is not None:
            write_artifact(out_dir, artifact)
        if trace is not None:
            traces[trace["stat_hash"]] = trace
            if traces_dir is not None:
                write_trace(traces_dir, trace)
        say(
            f"[{index + 1}/{len(points)}] {points[index].label}: "
            f"runtime={artifact['result']['duration_s']:.1f}s "
            f"cost=${artifact['result']['cost_total']:.4f} "
            f"converged={artifact['result']['converged']} "
            f"({artifact['meta']['wall_seconds']:.1f}s wall, "
            f"{artifact['meta']['substrate']})"
        )

    def fail(task: _Task, reason: str) -> None:
        run.failed.append(
            {
                "index": task.index,
                "label": task.point.label,
                "config_hash": hashes[task.index],
                "reason": reason,
            }
        )
        say(f"[{task.index + 1}/{len(points)}] {task.point.label}: FAILED ({reason})")

    def execute(tasks: list[_Task]) -> None:
        """Fan a batch of tasks over the pool, or run it inline at width 1."""
        width = min(jobs, len(tasks))
        if width > 1:
            run_resilient_pool(tasks, width, finish, fail)
        else:
            for task in tasks:
                finish(run_task(task))

    # Phase 0: one recording per stat group that has no trace yet. The
    # timing-coupled points ride along: both are full-cost exact
    # trainings, so one pool pass covers them.
    say(
        f"phase 0: {len(record_tasks)} exact recording(s) for "
        f"{run.stat_groups} unique statistical fingerprint(s) "
        f"({len(traces)} trace(s) already on disk)"
        + (f"; {len(exact_tasks)} timing-coupled point(s) run exact" if exact_tasks else "")
    )
    execute(record_tasks + exact_tasks)

    # Phase 1: replay every other point of each group from its trace.
    recorded = {task.index for task in record_tasks}
    replay_tasks: list[_Task] = []
    for stat_hash, tasks in stat_groups.items():
        for task in tasks:
            if task.index in recorded:
                continue
            if stat_hash in traces:
                replay_tasks.append(
                    _Task(task.index, task.point, mode="replay", trace=traces[stat_hash])
                )
            else:
                # The phase-0 recording for this fingerprint died (its
                # worker was killed): its replays have no trace to run on.
                fail(
                    task,
                    f"recording for statistical fingerprint {stat_hash[:12]} "
                    "failed; nothing to replay",
                )
    replay_tasks.sort(key=lambda task: task.index)
    run.replayed = len(replay_tasks)
    run.ran = run.recorded + run.exact_runs + run.replayed
    say(f"phase 1: replaying {len(replay_tasks)} point(s) from recorded traces")
    execute(replay_tasks)

    # Failed points (dead workers) have no artifact; everything else is
    # returned in point order.
    run.artifacts = [by_hash[h] for h in hashes if h in by_hash]
    return run
