"""Source mutants the reference must kill, and the runner that checks it.

    python tests/reference/mutants.py [NAME ...]

Each entry of :data:`MUTANTS` is ``(name, file, anchor, replacement)``,
the file relative to ``src/repro``. For each one the runner copies
``src/`` to a temporary directory, replaces the anchor (which must occur
exactly once) and runs ``pytest tests/reference -x -q`` against the copy,
with hypothesis's shrink phase off: a verdict needs one failing example,
not the smallest. It exits non-zero if any mutant survives, or if any
anchor is missing or ambiguous: a refactor that moves an anchor breaks
this list loudly, never silently.

Left out as equivalent (no run can tell them apart):

* ``max(end, now)`` -> ``end`` in ``Engine._apply_get``: a lookup runs at
  its issue instant, so a booked get never completes before ``now``;
* ``n <= size`` -> ``n < size`` in ``ObjectStore._do_delete_prefix``: the
  prefix's own length then takes the per-key path, which moves that
  counter by the same amount.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# A pytest plugin the runner loads: every example generated, none shrunk.
NO_SHRINK = """from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.generate])
settings.load_profile("mutants")
"""

MUTANTS = [
    ("delete_prefix_skips_longer_watched_lengths", "storage/base.py",
     "for key in removed:\n                    if n <= len(key)",
     "for key in ():\n                    if n <= len(key)"),
    ("retention_split_off_by_one", "storage/base.py",
     "if len(doomed) < len(keys):", "if len(doomed) < len(keys) - 1:"),
    ("retried_op_starts_at_its_last_attempt", "storage/base.py",
     "start = retried[0]  # the op began", "pass  # the op began"),
    ("count_waiters_woken_in_prefix_order", "storage/base.py",
     "satisfied.sort(key=lambda entry: entry[1])", "pass"),
    ("fifo_drained_before_the_heap", "simulation/engine.py",
     "while heap and heap[0][0] == t:", "while heap and heap[0][0] == t and not fifo:"),
    ("next_put_ignores_a_kill", "simulation/engine.py",
     "return  # stale, like _fire's: killed mid-sequence\n        item = next(rest, None)",
     "pass\n        item = next(rest, None)"),
    ("overwrite_counted_as_a_new_key", "storage/base.py",
     "if key in objects:  # an overwrite changes no count", "if False:"),
    ("cancel_wait_keeps_the_largest_target", "storage/base.py",
     "record[2] = min(w[0] for w in remaining)\n        else:\n"
     "            self._unwatch(prefix)",
     "record[2] = max(w[0] for w in remaining)\n        else:\n"
     "            self._unwatch(prefix)"),
    ("failed_attempt_billed_twice", "storage/base.py",
     "self._bill(op, 0)", "self._bill(op, 0)\n            self._bill(op, 0)"),
    ("remove_range_keeps_the_last_key_of_a_cut", "storage/ordered_index.py",
     "j = bisect_left(first, hi)\n", "j = bisect_left(first, hi) - 1\n"),
    ("put_skips_the_shortest_watched_length", "storage/base.py",
     "for n in self._prefix_lens:\n            if n > size:\n                break\n"
     "            record = watched.get(prefix := key[:n])",
     "for n in self._prefix_lens[1:]:\n            if n > size:\n                break\n"
     "            record = watched.get(prefix := key[:n])"),
    ("poll_batch_lands_one_ulp_high", "pricing/meter.py",
     "total = (k + jump * step) * u", "total = (k + jump * step + 1) * u"),
    ("retention_floor_moves_down", "comm/patterns.py",
     "self.floor = max(self.floor, floor)", "self.floor = floor"),
    ("retention_collected_miscounted", "comm/patterns.py",
     "self.collected += removed", "self.collected += removed + 1"),
]


def run(name: str, path: str, anchor: str, replacement: str) -> str:
    """'killed', 'survived', or why the mutant could not be judged."""
    source = ROOT / "src" / "repro" / path
    text = source.read_text()
    found = text.count(anchor)
    if found != 1:
        return f"anchor found {found} times in {path}"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "repro" / path).write_text(text.replace(anchor, replacement))
        (Path(tmp) / "no_shrink.py").write_text(NO_SHRINK)
        env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{tmp}", PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "tests/reference", "-x", "-q",
             "-p", "no:cacheprovider", "-p", "no_shrink"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    if done.returncode == 1:  # a test failed
        return "killed"
    if done.returncode == 0:
        return "survived"
    return f"pytest exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {sorted(unknown)}")
        return 2
    bad = 0
    for mutant in MUTANTS:
        if names and mutant[0] not in names:
            continue
        verdict = run(*mutant)
        bad += verdict != "killed"
        print(f"{mutant[0]:45s} {verdict}", flush=True)
    print(f"{bad} mutant(s) not killed" if bad else "every mutant killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
