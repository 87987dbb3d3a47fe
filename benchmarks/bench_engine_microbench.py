"""Engine hot-path microbenchmark: w-worker ScatterReduce rounds.

Measures the *wall-clock* cost of simulating communication rounds at
scale — the regime the Fig. 11 sweeps and Table 3 patterns need (100+
workers). The seed engine rescanned every stored key per waiter per
put (O(w^3) string scans per round); the indexed data plane brings a
round back to near-linear work.

Run standalone to (re)generate ``BENCH_engine.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_engine_microbench.py

The JSON records two baselines next to the current engine's numbers so
the speedups stay auditable:

* ``seed`` (w=50, w=100) — the pre-refactor O(w^3) engine at commit
  ea1bc81. Running it past ~100 workers is impractical, which is why
  the large points use the second baseline.
* ``pre_mega`` (w=512, w=1024) — the indexed-but-flat engine at commit
  2ebd351, i.e. immediately before the mega-scale rework (chunked key
  index, batched dispatch, float-heap service slots). Its flat sorted
  key list pays an O(n) memmove per put/delete, which is the wall the
  numbers show: 2x the workers (512 -> 1024) cost it 13x the wall
  clock. The mega-scale acceptance gate lives here: the current
  engine must hold >= 3x over this baseline at w=1024.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

from repro.comm.patterns import scatter_reduce
from repro.simulation.engine import Engine
from repro.storage.services import S3Store

# Wall-clock seconds for one scatter_reduce round, measured on the seed
# engine (commit ea1bc81) on this container, single-threaded BLAS.
SEED_BASELINE_S = {50: 0.334, 100: 4.065}
# Same round on the pre-mega-scale engine (commit 2ebd351, flat sorted
# key list), measured on this container with the machine idle.
PRE_MEGA_BASELINE_S = {512: 22.10, 1024: 284.07}

LOGICAL_NBYTES = 400_000  # ~LR/RCV1-sized model


def run_round(workers: int, rounds: int = 1) -> float:
    """Simulate `rounds` ScatterReduce rounds; return wall seconds."""
    engine = Engine()
    store = S3Store()
    store.available_at = 0.0
    finished = []

    def worker(rank: int):
        for r in range(rounds):
            yield from scatter_reduce(store, rank, workers, f"r{r}", LOGICAL_NBYTES)
        finished.append(rank)

    for rank in range(workers):
        engine.spawn(worker(rank), f"w{rank}")
    # GC hygiene: a w=1024 round keeps millions of containers live, and
    # generational collections firing mid-measurement swing the wall
    # clock by up to ~50% run-to-run — enough to trip the scaling-ratio
    # gate on noise. Collect leftover garbage first, then keep the
    # collector off while the clock runs (both here and in
    # check_regression.py, which imports this function).
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        engine.run()
        elapsed = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    assert len(finished) == workers, "a worker did not complete its rounds"
    return elapsed


def main() -> int:
    baselines = {w: ("seed", s) for w, s in SEED_BASELINE_S.items()}
    baselines.update(
        {w: ("pre_mega", s) for w, s in PRE_MEGA_BASELINE_S.items()}
    )
    results = {}
    for workers in sorted(baselines):
        engine_name, baseline = baselines[workers]
        elapsed = run_round(workers)
        results[str(workers)] = {
            "workers": workers,
            "baseline_engine": engine_name,
            "baseline_seconds": baseline,
            "current_seconds": round(elapsed, 4),
            "speedup": round(baseline / elapsed, 2) if elapsed > 0 else float("inf"),
        }
        print(
            f"w={workers:4d}  {engine_name:>8}={baseline:8.3f}s  "
            f"now={elapsed:8.3f}s  speedup={baseline / elapsed:8.1f}x"
        )
    out = {
        "benchmark": "scatter_reduce round wall-clock (engine hot path)",
        "seed_commit": "ea1bc81",
        "pre_mega_commit": "2ebd351",
        "logical_nbytes": LOGICAL_NBYTES,
        "results": results,
    }
    path = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"[written to {path}]")
    failures = []
    if results["100"]["speedup"] < 10.0:
        failures.append(f"100-worker speedup {results['100']['speedup']}x < 10x vs seed")
    if results["1024"]["speedup"] < 3.0:
        failures.append(
            f"1024-worker speedup {results['1024']['speedup']}x < 3x vs the "
            "pre-mega engine (mega-scale acceptance gate)"
        )
    for line in failures:
        print(f"FAIL: {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
