"""Nothing names a deleted surface: one ``git grep`` per row of the table.

Each row is a deletion: the grep flags, the pattern, and the pathspecs
(exclusions included) it searches. A pattern brackets one character of
every name, so the row never matches its own spelling here. The table
needs a git checkout to search; outside one there is nothing to grep.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CODE = ("src", "tests", "benchmarks", "examples")
# Every top-level Markdown file but the README is a working log or reference
# text, and the frozen ledger records what once ran: these may name the gone.
EXCEPT_LOGS = (
    *(f":!{doc.name}" for doc in sorted(ROOT.glob("*.md")) if doc.name != "README.md"),
    ":!benchmarks/ledger",
)

DELETED = {
    # The committed sweep record and its six recorder scripts; the ledger
    # and BENCH_engine.json are the only benchmark records.
    "sweep record": ("-n", "BENCH_swee[p]", (".", *EXCEPT_LOGS)),
    # ExactSubstrate keeps the trace it replays; only the alias line kept
    # for the frozen ledger names the folded recording class.
    "recording substrate": (
        "-n", "RecordingSubstrat[e]",
        ("src", "tests", "examples", ":!src/repro/substrate/__init__.py"),
    ),
    # tests/reference is the one reference for the engine and storage plane.
    "per-rung oracles": (
        "-n", "AllHeapEngin[e]\\|TwoRegistryOracl[e]\\|oracle_boo[k]\\|oracle_scatter_reduc[e]",
        CODE,
    ),
    # The lockstep pass is the one place BSP floats are folded: the
    # collective's fold hook, its arrival sort and the vector splitter.
    "collective fold": (
        "-n", "reduce_f[n]\\|_natural_ke[y]\\|split_chunk[s]", (*CODE, ":!benchmarks/ledger"),
    ),
    # A figure's shape findings are its study's claims, checked by sweep.
    "figure scripts": (
        "-n", "bench_fi[g]\\|bench_tabl[e]\\|write_repor[t]\\|benchmarks/report[s]",
        (".", *EXCEPT_LOGS),
    ),
    # A replayed rank's position is its RoundState: the per-rank
    # save/rewind pair and the injector's recovery record.
    "snapshot seam": ("-n", "snapshot_ran[k]\\|restore_ran[k]\\|_Recover[y]", CODE),
    # A transfer's size is its sender's: the type-sniffing sizer and unwrap.
    "payload sizer": ("-n", "payload_nbyte[s]\\|unwra[p](", CODE),
    # The engine runs only what the executors yield: the process-spawning
    # and key-deleting commands (imports and constructors) and the error
    # policy knob; the lifetime's hard-kill check, the test-only store
    # read, the checkpoint record's key and the artifact's older schemas.
    "test-only surfaces": (
        "-nE",
        "\\bon_erro[r]|ensure_aliv[e]|COMPATIBLE_SCHEM[A]_VERSIONS|\\.pee[k]\\("
        "|Checkpoint\\.key_fo[r]|\\b(Spaw[n]|Delet[e])([(,:]|$)"
        "|import .*\\b(Spaw[n]|Delet[e])\\b",
        CODE,
    ),
    # Every storage wait is a prefix count: the exact-key wait command,
    # its store registry and its engine dispatcher.
    "exact-key wait": (
        "-nE", "\\bWaitKe[y]\\b|wait_for_ke[y]|_key_waiter[s]|_dispatch_wait_ke[y]", CODE,
    ),
    # Every rank starts from the run's one initial model (initial_model):
    # the k-means-only broadcast argument and the per-shard fallback draw.
    "per-rank initial draw": ("-n", "kmeans_ini[t]\\|init_centroid[s]=", CODE),
}


@pytest.mark.parametrize("deleted", DELETED)
def test_nothing_names_the_deleted(deleted):
    flags, pattern, paths = DELETED[deleted]
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    found = subprocess.run(
        ["git", "grep", flags, pattern, "--", *paths],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert found.returncode == 1, found.stdout or found.stderr  # 1: no line matched
