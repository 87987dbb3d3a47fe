"""CI gate: fail when the engine hot path regresses vs BENCH_engine.json.

Re-runs the ScatterReduce microbenchmark from
``bench_engine_microbench.py`` at the recorded worker counts and
applies two checks against the record committed in ``BENCH_engine.json``:

1. **Scaling ratios (machine-independent).** time(w_hi)/time(w_lo)
   for every *adjacent* pair of recorded worker counts (50->100,
   100->512, 512->1024) measures the complexity class, not the
   machine: the O(w^3) seed engine ran 12x from w=50 to w=100; the
   pre-mega flat-index engine ran ~13x from 512 to 1024 (its O(n)
   key-list memmove) where the chunked-index engine runs ~5x. A gate
   fails when the measured ratio exceeds the recorded ratio by
   ``--ratio-slack`` (default 1.75x) — this is the real regression
   detector, immune to slow CI runners, and the per-pair placement
   localises *which* scale regime regressed.
2. **Absolute wall-clock (loose).** Each point must finish within
   ``--factor`` (default 3x) of the recorded ``current_seconds`` —
   a backstop for uniform constant-factor slowdowns. Deliberately
   generous because the baseline was measured on a dev machine and CI
   runner cores vary; each point takes the best of ``--repeats`` runs
   (points at w >= 512 run once — at ~6-27 s apiece, repeating them
   would dominate the CI job for noise-reduction the ratio gates
   don't need).

Run locally::

    PYTHONPATH=src python benchmarks/check_regression.py

Exit code 0 = within budget, 1 = regression, 2 = unreadable baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_engine_microbench import run_round  # noqa: E402

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="committed benchmark record (BENCH_engine.json)")
    parser.add_argument("--factor", type=float, default=3.0,
                        help="allowed absolute slowdown vs the recorded "
                        "current_seconds (machine-sensitive backstop)")
    parser.add_argument("--ratio-slack", type=float, default=1.75,
                        help="allowed growth of time(w_max)/time(w_min) vs "
                        "the recorded ratio (machine-independent)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per point; the best (min) is compared")
    args = parser.parse_args(argv)

    try:
        baseline = json.loads(args.baseline.read_text())
        results = baseline["results"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
        return 2

    failures = []
    measured: dict[int, float] = {}
    for key in sorted(results, key=int):
        record = results[key]
        workers = record["workers"]
        budget = record["current_seconds"] * args.factor
        repeats = max(1, args.repeats) if workers < 512 else 1
        elapsed = min(run_round(workers) for _ in range(repeats))
        measured[workers] = elapsed
        verdict = "ok" if elapsed <= budget else "REGRESSION"
        print(
            f"w={workers:4d}  recorded={record['current_seconds']:8.4f}s  "
            f"budget={budget:8.4f}s  measured={elapsed:8.4f}s  {verdict}"
        )
        if elapsed > budget:
            failures.append(
                f"w={workers}: {elapsed:.4f}s > {budget:.4f}s "
                f"({args.factor:g}x the recorded {record['current_seconds']:.4f}s)"
            )

    # Machine-independent complexity checks: how does runtime *scale*
    # between adjacent recorded worker counts? Per-pair gates localise
    # which scale regime regressed (e.g. a flat-index relapse shows at
    # 512->1024 long before it moves 50->100).
    ordered = sorted(measured)
    for w_lo, w_hi in zip(ordered, ordered[1:]):
        recorded_ratio = (
            results[str(w_hi)]["current_seconds"]
            / results[str(w_lo)]["current_seconds"]
        )
        measured_ratio = measured[w_hi] / measured[w_lo]
        limit = recorded_ratio * args.ratio_slack
        verdict = "ok" if measured_ratio <= limit else "REGRESSION"
        print(
            f"scaling w={w_lo}->{w_hi}: recorded {recorded_ratio:.2f}x, "
            f"limit {limit:.2f}x, measured {measured_ratio:.2f}x  {verdict}"
        )
        if measured_ratio > limit:
            failures.append(
                f"scaling ratio w={w_lo}->{w_hi}: {measured_ratio:.2f}x > "
                f"{limit:.2f}x (complexity-class regression; the O(w^3) seed "
                f"engine measured ~12x at 50->100, the flat-index engine "
                f"~13x at 512->1024)"
            )

    if failures:
        print("\nengine hot-path regression detected:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        print(
            "\nIf this slowdown is intentional (e.g. a fidelity/perf trade-off),\n"
            "re-measure and commit a new BENCH_engine.json:\n"
            "    PYTHONPATH=src python benchmarks/bench_engine_microbench.py",
            file=sys.stderr,
        )
        return 1
    print("engine hot path within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
