"""Nothing names a deleted surface: one ``git grep`` per row of the table.

Each row is a deletion: the grep flags, the pattern, and the pathspecs
(exclusions included) it searches. A pattern brackets one character of
every name, so the row never matches its own spelling here. The table
needs a git checkout to search; outside one there is nothing to grep.
"""

from __future__ import annotations

import ast
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
    # A grid study's result is its row frame and its report a declaration:
    # the per-study result classes the regrouping aggregates built.
    "study result classes": (
        "-nE",
        "\\b(AlgorithmCompariso[n]|SyncCompariso[n]|EndToEndPane[l]|BreakdownRo[w]"
        "|ScalingPoin[t]|ScalingProfil[e]|ConfigPoin[t]|ReliabilityPoin[t]"
        "|ReliabilityCurv[e]|SanityRo[w]|ChannelRo[w])\\b",
        CODE,
    ),
    # Every study states its report as Table/Series parts over its rows:
    # the hand-written renderers and the one-use row classes they read.
    "study renderers": (
        "-nE",
        "def format_repor[t]|format_burst_repor[t]|\\b(PatternRo[w]|RPCRo[w]|ConstantRo[w]"
        "|CaseStudyRo[w]|HotDataRo[w]|TenancyOutcom[e]|PipelineRo[w]|ValidationPoin[t]"
        "|EstimatorPoin[t]|Fig13Resul[t])\\b",
        ("src/repro",),
    ),
    # The event queue is a heap of instants and one list per instant: the
    # heap of (time, seq, fn, args) events and its sequence counter.
    "event heap": ("-nE", "self\\._hea[p]\\b|self\\._heappus[h]|_seq_nex[t]|\\._se[q]\\b", CODE),
    # The engine's `now` is the clock, and it holds live processes only:
    # the clock class, its module and the all-time process list.
    "process registry": (
        "-nE",
        "SimCloc[k]|simulation[/.]cloc[k]\\b|self\\.cloc[k]\\b|self\\.processe[s]\\b",
        ("src/repro",),
    ),
    # A BSP rank binds its exchange once (JobContext.bind_exchange), and
    # its round-boundary hook is a plain call: the per-round context
    # exchange, which re-picked the pattern every call.
    "per-round exchange": ("-nE", "ctx\\.exchang[e]\\b|def exchange\\(self, ran[k]", CODE),
    # A yielded command costs one handler frame: the handler-table
    # lookup lives in Engine._step, not in a dispatch method of its own.
    "dispatch frame": ("-n", "def _dispatc[h](self\\|self\\._dispatc[h](", ("src/repro",)),
    # tests/pins.py holds every pinned value and re-records all of them:
    # the per-file record recipes, the golden files and the digest tables.
    "per-file pins": (
        "-nE",
        "golden_(engin[e]|dispatc[h]|lockste[p])\\b|study_report[s]/|PINNED_[A-Z_]*DIGEST[S]"
        "|--recor[d]\\b",
        (*CODE, "README.md", ".claude/skills/verify/SKILL.md"),
    ),
    # The analytical model reads the simulator's Table-6 envelopes by name:
    # its own constants table and interpolation, and the hand copies of
    # the S3 envelope, the FaaS<->VM link and the g3s.xlarge price.
    "analytical constants": (
        "-n",
        "AnalyticalConstant[s]\\|TABLE[6]\\|_interp_anchor[s]\\|S3_LATENCY_[S]"
        "\\|S3_BANDWIDTH_BP[S]\\|FAAS_VM_BANDWIDTH_TODA[Y]\\|GPU_FAAS_HOURL[Y]"
        "\\|q1_gpu_faas_cos[t]",
        (*CODE, "README.md"),
    ),
    # README, the verify recipe, CI and the code state what holds now;
    # CHANGES.md is the one log of how it came to hold.
    "PR log": (
        "-nE", "\\bP[R] ?[0-9]+",
        ("README.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml", "src"),
    ),
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


def test_no_builtin_sum_in_the_program():
    """Every reduction under src/repro is ``fold`` (floats) or ``tally``
    (integer counts): builtin ``sum()`` over floats is compensated from
    Python 3.12 on, so its bits depend on the interpreter."""
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Name) and node.id == "sum"
    ]
    assert not found, found
