"""BENCHMARK.json's command: one gate-scale run of one workload.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` makes PASSES fresh worker processes one after another,
each doing the whole set-up and then measuring for S/PASSES seconds, and
reports the end-to-end metrics. ``--trace 1`` makes one traced pass and
reports the per-layer metrics. The last stdout line is the result
object; the run is also written, in the ledger's file format, to
``.ledger_work/gate.NAME.SEED.json`` so that ``compare`` reads gate runs
like any other ledger.

The value reported for an end-to-end metric is its median over the run
(the same number ``compare`` judges): over the PASSES set-ups and peak
RSS readings, and over all timed sections. The three host times are
seconds at reference host speed (probe.py): over ten runs on the noisy
development host the raw median section spread 5-26 % (quartile distance
over median) and the corrected one 2-9 %; see README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.ledger import schema, worker  # noqa: E402

PASSES = 3  # set-up is paid (and measured) this many times per run
MIN_REPEATS = 2  # timed sections per pass, at least


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    worker.WORK_ROOT.mkdir(exist_ok=True)
    stem = f"gate.{args.workload}.{args.seed}"
    try:
        if args.trace:
            passes = [worker.launch(
                args.workload, "gate", args.seed, 1, repeats=worker.TRACED_PASSES,
                seconds=args.seconds / 2,
                spans_out=worker.WORK_ROOT / f"{stem}.trace.json")]
        else:
            passes = [worker.launch(args.workload, "gate", args.seed, 0,
                                    repeats=MIN_REPEATS,
                                    seconds=args.seconds / PASSES)
                      for _ in range(PASSES)]
    except subprocess.CalledProcessError as error:
        print(f"run.py: worker pass failed ({error})", file=sys.stderr)
        return 1
    entry = worker.ledger_entry(args.workload, passes)
    worker.write_ledger(worker.WORK_ROOT / f"{stem}.json", "gate", args.seed,
                        entry["end_to_end"]["wall_s"]["n"], passes[0]["versions"],
                        {args.workload: entry})
    if args.trace:
        values = entry["per_layer"]
        units = schema.PER_LAYER_UNITS
    else:
        values = {name: entry["end_to_end"][name]["median"]
                  for name, _, _, _ in schema.END_TO_END}
        units = {name: unit for name, unit, _, _ in schema.END_TO_END}

    for name in entry["failed"]:
        print(f"FAILED CHECK {name}", file=sys.stderr)
    print(json.dumps({
        "correct": not entry["failed"],
        "attempted": entry["attempted"],
        "failed": len(entry["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
