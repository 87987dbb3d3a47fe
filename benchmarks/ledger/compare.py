"""``compare A.json B.json``: the before/after table of two ledger files.

Both front-ends write the format (``python -m benchmarks.ledger run`` and
BENCHMARK.json's ``run.py``), so this is the one verdict path. For every
(end-to-end metric, workload): parent (A) and change (B) median / min /
max, the ratio of the medians with its base, and a verdict against the
metric's regression bound:

* ``regressed``  B's median is worse than A's by more than the bound;
* ``improved``   every run of B beats every run of A (n >= 3 a side);
* ``unchanged``  neither, and both sides' own (max - min) / median stay
                 within the bound;
* ``unresolved`` neither, but one side's own spread exceeds the bound,
                 so "no change" cannot be told from noise.

Exact counts, simulated statistics and result digests must be identical
(same scale and seed on both sides), and both files must hold the same
workloads. Exit status is non-zero on any ``regressed``, any exact
difference, or a workload only one side ran.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.ledger import schema


# `verdict` reads "lower is better" off the subtraction's direction.
assert all(better == "lower"
           for _, _, better, _ in schema.END_TO_END + [schema.FAILED_FRAC])


def verdict(a: dict, b: dict, bound: float) -> str:
    """Classify B's summary against A's."""
    if b["median"] - a["median"] > bound * abs(a["median"]):
        return "regressed"
    # One run a side (peak_rss_mb) decides nothing by order alone.
    if min(a["n"], b["n"]) >= 3 and b["max"] < a["min"]:
        return "improved"
    for side in (a, b):
        if side["median"] and (side["max"] - side["min"]) / abs(side["median"]) > bound:
            return "unresolved"
    return "unchanged"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Report lines and whether the comparison passes."""
    lines: list[str] = []
    ok = True
    same_inputs = all(
        a["meta"][key] == b["meta"][key] for key in ("scale", "seed")
    )
    if not same_inputs:
        lines.append("different scale/seed: exact counts are not compared")
    for name in sorted(set(a["workloads"]) ^ set(b["workloads"])):
        ok = False
        side = "A" if name in a["workloads"] else "B"
        lines.append(f"{name:16s} MISSING: only {side} ran it")
    lines.append(
        f"{'workload':16s} {'metric':12s} {'A median [min, max]':>32s} "
        f"{'B median [min, max]':>32s} {'B/A':>22s}  verdict"
    )
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, unit, _, bound in schema.END_TO_END + [schema.FAILED_FRAC]:
            ma, mb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            result = verdict(ma, mb, bound)
            ok &= result != "regressed"
            ratio = (
                f"{mb['median'] / ma['median']:.3f}x of {ma['median']:.4g} {unit}"
                if ma["median"] else f"{mb['median']:.4g} vs 0 {unit}"
            )
            lines.append(
                f"{name:16s} {metric:12s} {_triple(ma):>32s} {_triple(mb):>32s} "
                f"{ratio:>22s}  {result} (bound +{bound:.0%}, n={ma['n']}/{mb['n']})"
            )
        if not same_inputs:
            continue
        if wa["digest"] != wb["digest"]:
            ok = False
            lines.append(f"{name:16s} DIFFERS result digest: {wa['digest']} vs {wb['digest']}")
        # An untraced gate run knows fewer exact counts than a traced one.
        for key in sorted(set(wa["exact"]) & set(wb["exact"])):
            if wa["exact"][key] != wb["exact"][key]:
                ok = False
                lines.append(
                    f"{name:16s} DIFFERS {key}: "
                    f"{wa['exact'][key]!r} vs {wb['exact'][key]!r}"
                )
    lines.append("PASS: no regression, exact counts identical" if ok else
                 "FAIL: regression, exact-count difference or missing workload "
                 "(see above)")
    return lines, ok


def _triple(m: dict) -> str:
    return f"{m['median']:.4g} [{m['min']:.4g}, {m['max']:.4g}]"


def main(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    lines, ok = compare(a, b)
    print("\n".join(lines))
    return 0 if ok else 1
