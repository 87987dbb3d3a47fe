"""One pass over one workload, in a fresh single-threaded process.

Set-up, one warm-up section, then timed untraced repeats — the
end-to-end numbers. With ``--trace 1`` the same process then runs the
section under spans (pass A), once more under ``capture_stats()`` for
exact counts (pass B), and the workload's extra passes — the per-layer
numbers; peak RSS is read before they start.

Noise protocol: BLAS pinned to one thread before numpy loads, string
hashing pinned, ``gc.collect()`` + ``gc.disable()`` around every timed
section (as ``bench_engine_microbench.run_round`` does), and the set-up
and the untraced sections run under the host-speed probe (probe.py), so
``setup_s``, ``wall_s`` and ``cpu_s`` are seconds at reference host speed;
the raw seconds travel beside them. The traced rounds are raw. The result is
one JSON object on the last stdout line; the parent side (``launch``,
``ledger_entry``, ``write_ledger``) turns a workload's passes into the
one file format both front-ends write and ``compare`` reads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
# Scratch inside the checkout (sweep artifact dirs, gate-mode spans).
WORK_ROOT = ROOT / ".ledger_work"

# Rounds of (untraced, span-traced, counted) sections per traced run.
TRACED_PASSES = 3

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def launch(workload: str, scale: str, seed: int, trace: int, repeats: int,
           seconds: float = 0.0, spans_out: Path | None = None) -> dict:
    """Run one pass in a fresh subprocess; its result object.

    The child is waited for; a failed child raises (its stderr is
    passed through), so a caller never reports a partial result.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--scale", scale, "--seed", str(seed),
        "--trace", str(trace), "--repeats", str(repeats),
        "--seconds", str(seconds), "--spawned-at", repr(time.time()),
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    done = subprocess.run(
        command, cwd=ROOT, env={**os.environ, **PINNED_ENV},
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float], unit: str) -> dict:
    """median / min / max / n. With n = 5 no percentile above the
    median has ten samples beyond it, so none is reported."""
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "unit": unit}


def ledger_entry(name: str, passes: list[dict]) -> dict:
    """One workload's ledger entry from its passes (`launch` results).

    Timed sections are pooled over the passes; set-up is one sample per
    pass; peak RSS is one sample per pass that ran timed sections (a
    set-up-only pass is not the same footprint). The per-layer metrics
    are the traced pass's, if there was one.
    """
    from benchmarks.ledger import schema

    measured = [p for p in passes if p["wall_s"]]
    failed = [check for p in passes for check in p["failed"]]
    attempted = sum(p["attempted"] for p in passes)

    def pooled(key: str) -> list[float]:
        return [value for p in measured for value in p[key]]

    return {
        "why": schema.WORKLOADS[name], "input": passes[0]["input"],
        "end_to_end": {
            "wall_s": summary(pooled("wall_s"), "s"),
            "cpu_s": summary(pooled("cpu_s"), "s"),
            "peak_rss_mb": summary([p["peak_rss_mb"] for p in measured], "MB"),
            "setup_s": summary([p["setup_s"] for p in passes], "s"),
            "failed_frac": summary([len(failed) / attempted], "ratio"),
        },
        # What the clocks read before the probe's correction, and the
        # host's speed over the same sections (1.0 = reference).
        "host": {
            "raw_wall_s": summary(pooled("raw_wall_s"), "s"),
            "raw_setup_s": summary([p["raw_setup_s"] for p in passes], "s"),
            "speed": summary(pooled("host_speed"), "ratio"),
        },
        "attempted": attempted, "failed": failed,
        "digest": passes[0]["digest"],
        # The traced pass knows every exact count, an untraced one some.
        "exact": max((p["exact"] for p in passes), key=len),
        "per_layer": next((p["per_layer"] for p in passes if p["per_layer"]), None),
    }


def write_ledger(path: Path, scale: str, seed: int, repeats: int,
                 versions: dict, entries: dict[str, dict]) -> None:
    """Write a ledger file: the reproducibility block and the entries
    (`ledger_entry` results by workload; `versions` is any pass's)."""
    from benchmarks.ledger import schema

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    ledger = {
        "meta": {
            "scale": scale, "seed": seed, "repeats": repeats,
            "nproc": os.cpu_count(), "git_commit": commit or "unknown",
            "versions": versions,
            "bounds": {name: bound for name, _, _, bound in
                       schema.END_TO_END + [schema.FAILED_FRAC]},
            "pinned": json.loads((LEDGER_DIR / "pinned.json").read_text())[scale],
        },
        "workloads": entries,
    }
    path.write_text(json.dumps(ledger, indent=1) + "\n")


class Timing(NamedTuple):
    wall: float  # seconds at reference host speed (raw without a probe)
    cpu: float
    raw_wall: float  # what perf_counter read
    speed: float  # the host's mean speed over the section, 1.0 = reference


def timed(fn, probe=None):
    """Run `fn` with the collector parked; (result, Timing)."""
    gc.collect()
    gc.disable()
    try:
        if probe is not None:
            probe.reset()
        wall, cpu = time.perf_counter(), time.process_time()
        out = fn()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if probe is None:
            return out, Timing(wall, cpu, wall, 1.0)
        net_wall, net_cpu = wall - probe.wall, cpu - probe.cpu
        speed = probe.speed()
        return out, Timing(net_wall * speed, net_cpu * speed, wall, speed)
    finally:
        gc.enable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed sections, at least")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating until this much time is measured")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.time() when the parent started this process")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    # Before numpy loads. (PYTHONHASHSEED only takes effect at
    # interpreter start: `launch` puts it in the child's environment.)
    os.environ.update(PINNED_ENV)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.ledger.probe import SpeedProbe
    from benchmarks.ledger.spans import Tracer

    probe = SpeedProbe()
    probe.start()  # before the imports: they are most of a small set-up
    tracer = Tracer(f"{args.workload}/{args.scale}/{args.seed}")
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        result = run_pass(args, tracer, probe, workdir, spawned_at)
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    if args.spans_out:
        tracer.write_chrome_trace(Path(args.spans_out))
    print(json.dumps(result))
    return 0


class Checks:
    """Output checks attempted and failed in this pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def run_pass(args, tracer, probe, workdir: Path, spawned_at: float) -> dict:
    with tracer.span("setup") as setup_root:
        with tracer.span("cli.import"):
            import numpy

            import repro
            from benchmarks.ledger import schema, workloads
        workload = workloads.make(args.workload, args.scale, args.seed, workdir)
        workload.setup(tracer)
        warm = workload.section()
    raw_setup_s = time.time() - spawned_at
    setup_s = (raw_setup_s - probe.wall) * probe.speed()

    reference = workload.digest(warm)
    exact = dict(workload.counts(warm))
    # Each section's outputs are released before the next one runs, so
    # peak RSS is the program's, not two result sets held by the harness.
    del warm
    checks = Checks()

    def check_outputs(out, label: str) -> None:
        checks.add(f"{label}: digest == warm-up digest",
                   workload.digest(out) == reference)
        for name, ok in workload.checks(out).items():
            checks.add(f"{label}: {name}", ok)

    timings: list[Timing] = []
    measured = 0.0
    while len(timings) < args.repeats or measured < args.seconds:
        out, timing = timed(workload.section, probe)
        timings.append(timing)
        measured += timing.raw_wall
        check_outputs(out, f"repeat {len(timings)}")
        del out
    probe.stop()  # the traced rounds read raw clocks
    # The high-water mark so far: the traced passes below may add to it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_layer = None
    if args.trace:
        layers = traced_passes(args, tracer, workload, setup_root, checks,
                               check_outputs)
        # A metric that does not apply to this workload reads 0.
        per_layer = {**dict.fromkeys(schema.PER_LAYER_UNITS, 0), **layers, **exact}
        exact = {name: per_layer[name] for name in sorted(schema.EXACT)}

    if args.seed == schema.DEFAULT_SEED:
        pinned = json.loads((LEDGER_DIR / "pinned.json").read_text())
        for name, value in pinned[args.scale].get(args.workload, {}).items():
            if name in exact:
                checks.add(f"pinned {name} == {value}", exact[name] == value)

    return {
        "input": workload.describe(),
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "peak_rss_mb": peak_rss_mb,
        "wall_s": [t.wall for t in timings],
        "cpu_s": [t.cpu for t in timings],
        "raw_wall_s": [t.raw_wall for t in timings],
        "host_speed": [t.speed for t in timings],
        "digest": reference,
        "exact": exact,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "per_layer": per_layer,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "repro": repro.__version__,
        },
    }


def traced_passes(args, tracer, workload, setup_root, checks: Checks,
                  check_outputs) -> dict:
    """Passes A and B and the workload's extras; the per-layer metrics."""
    from benchmarks.ledger import workloads
    from repro.simulation.engine import capture_stats

    def traced_section():
        with tracer.span("section") as root:
            return workload.section(tracer), root

    # Passes A and B each follow an untraced section directly: the host
    # drifts by more than spans cost, so an overhead is the median
    # CPU-time ratio of neighbours, not fastest against fastest. Span
    # metrics come from the fastest (least disturbed) pass A.
    traced: list[tuple] = []  # (wall, root span, layer metrics)
    overheads: list[tuple[float, float]] = []  # (pass A, pass B) per round
    for index in range(min(args.repeats, TRACED_PASSES)):
        out, plain = timed(workload.section)
        check_outputs(out, f"round {index + 1} untraced")
        del out
        (out_a, root), pass_a = timed(traced_section)
        check_outputs(out_a, f"pass A {index + 1}")
        traced.append((pass_a.wall, root, workload.layers(tracer, root, out_a)))
        with capture_stats() as sink:
            out_b, pass_b = timed(workload.section)
        check_outputs(out_b, f"pass B {index + 1}")
        del out_b
        overheads.append((pass_a.cpu / plain.cpu - 1.0, pass_b.cpu / plain.cpu - 1.0))
    _, root, layers = min(traced, key=lambda entry: entry[0])
    layers.update(workloads.step_metrics(tracer, root))
    (more, extra_checks), _ = timed(lambda: workload.extras(tracer, out_a))
    del out_a
    layers.update(more)
    for name, ok in extra_checks.items():
        checks.add(name, ok)
    layers.update(workloads.index_probe(
        tracer, **workloads.SCALES[args.scale]["index_probe"]))

    events = sum(s.events for s in sink)
    batches = sum(s.batches for s in sink)
    engine_s = layers["simulation.self_s"]
    layers.update({
        "cli.import_s": tracer.total("cli.import", setup_root),
        "data.synth_s": tracer.total("data.synth", setup_root),
        "data.rows": workload.rows,
        "substrate.record_s": tracer.total("substrate.record", setup_root),
        "service.baselines_s": tracer.total("service.baselines", setup_root),
        "simulation.events": events,
        "simulation.batches": batches,
        "simulation.events_per_batch": events / batches,
        "simulation.peak_heap": max(s.peak_heap for s in sink),
        "simulation.us_per_event": engine_s / events * 1e6,
        "simulation.events_per_s": events / engine_s,
        "trace.overhead_frac": statistics.median(a for a, _ in overheads),
        "trace.stats_overhead_frac": statistics.median(b for _, b in overheads),
        "trace.unaccounted_frac": root.self_time / root.duration,
    })
    layers.update(workload.engine_metrics(sink))
    return layers


if __name__ == "__main__":
    raise SystemExit(main())
