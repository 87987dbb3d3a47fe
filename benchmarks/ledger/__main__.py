"""The ledger's command line.

    python -m benchmarks.ledger run [--workload NAME] [--seed S] [--repeats N]
                                    [--smoke] --out FILE
    python -m benchmarks.ledger compare A.json B.json

``run`` executes each workload in its own fresh subprocess (see
worker.py for the noise protocol), prints every metric by name with its
unit, verifies outputs, and writes FILE plus one Chrome-trace span file
per workload next to it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.ledger import compare, schema, worker  # noqa: E402

SETUP_PASSES = 3  # processes per workload that pay (and time) the set-up


def run(args) -> int:
    out = Path(args.out).resolve()
    out.parent.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(schema.WORKLOADS)
    spans = {name: out.with_name(f"{out.stem}.{name}.trace.json") for name in names}
    passes = {}
    for name in names:
        print(f"[{name}: timed and traced pass]", file=sys.stderr)
        passes[name] = [worker.launch(name, args.scale, args.seed, 1,
                                      repeats=args.repeats, spans_out=spans[name])]
    # Set-up is one sample per process: pay it in further processes
    # (set-up and warm-up only) so it has a spread like the rest. They
    # run after every main pass, round by round, so a workload's samples
    # lie minutes apart and one slow wave of the host does not cover
    # them all.
    for _ in range(min(args.repeats, SETUP_PASSES) - 1):
        for name in names:
            print(f"[{name}: set-up pass]", file=sys.stderr)
            passes[name].append(
                worker.launch(name, args.scale, args.seed, 0, repeats=0))

    entries = {}
    for name in names:
        entry = entries[name] = worker.ledger_entry(name, passes[name])
        entry["spans"] = spans[name].name
        print(f"== {name}: {entry['input']}")
        for metric, m in entry["end_to_end"].items():
            print(f"  {metric:14s} {m['median']:12.4f} {m['unit']:6s} "
                  f"[median; min {m['min']:.4f}, max {m['max']:.4f}, n={m['n']}]")
        host = entry["host"]
        print(f"  host: raw wall {host['raw_wall_s']['median']:.4f} s, raw set-up "
              f"{host['raw_setup_s']['median']:.4f} s, speed "
              f"{host['speed']['median']:.3f} of reference")
        for metric, unit, _ in schema.PER_LAYER:
            print(f"    {metric:30s} {entry['per_layer'][metric]:16.6g} {unit}")
        for check in entry["failed"]:
            print(f"  FAILED CHECK {check}")
    worker.write_ledger(out, args.scale, args.seed, args.repeats,
                        passes[names[0]][0]["versions"], entries)
    print(f"[ledger written to {out}]")
    return 1 if any(entry["failed"] for entry in entries.values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger",
                                     description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run the workloads, write a ledger")
    run_parser.add_argument("--workload", choices=list(schema.WORKLOADS))
    run_parser.add_argument("--seed", type=int, default=schema.DEFAULT_SEED)
    run_parser.add_argument("--repeats", type=int, default=5,
                            help="timed sections after the warm-up (>= 3 for a "
                                 "recorded ledger)")
    run_parser.add_argument("--smoke", dest="scale", action="store_const",
                            const="smoke", default="full",
                            help="reduced sizes (the tier-1 self-test)")
    run_parser.add_argument("--out", required=True)
    compare_parser = commands.add_parser("compare", help="before/after table")
    compare_parser.add_argument("a")
    compare_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.repeats < 1:
            parser.error("--repeats must be at least 1")
        return run(args)
    return compare.main(args.a, args.b)


if __name__ == "__main__":
    raise SystemExit(main())
