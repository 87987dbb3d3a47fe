"""Self-test of the ledger benchmark (tier-1; smoke scale, a few seconds).

Timings are meaningless at this scale and are not asserted; what is
asserted is the contract: every metric is present with a unit, spans
account for their root, outputs verify, and two runs of one seed agree
exactly on every digest and count.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.ledger import compare, schema  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_lists_the_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["command"][-1] == "benchmarks/ledger/run.py"
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(
        schema.WORKLOADS.items()
    )
    assert [tuple(m.values()) for m in spec["end_to_end"]] == schema.END_TO_END
    assert [tuple(m.values()) for m in spec["per_layer"]] == schema.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(m["unit"] for m in spec["end_to_end"] + spec["per_layer"])
    assert "setup_s" in names


@pytest.fixture(scope="module")
def smoke_ledgers(tmp_path_factory):
    """Two smoke runs of the default seed, side by side."""
    out = tmp_path_factory.mktemp("ledger")
    paths = [out / "a.json", out / "b.json"]
    runs = [
        subprocess.Popen(
            [sys.executable, "-m", "benchmarks.ledger", "run", "--smoke",
             "--repeats", "1", "--out", str(path)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for path in paths
    ]
    for run in runs:
        output, _ = run.communicate(timeout=120)
        assert run.returncode == 0, output
    return paths, output


def test_smoke_run_reports_every_metric_and_verifies(smoke_ledgers):
    paths, output = smoke_ledgers
    ledger = json.loads(paths[0].read_text())
    assert list(ledger["workloads"]) == list(schema.WORKLOADS)
    for key in ("nproc", "seed", "repeats", "git_commit", "versions", "pinned"):
        assert key in ledger["meta"]
    for name, entry in ledger["workloads"].items():
        assert entry["input"] and entry["failed"] == [] and entry["attempted"] > 0
        for metric, unit, _, _ in schema.END_TO_END + [schema.FAILED_FRAC]:
            assert entry["end_to_end"][metric]["unit"] == unit
            assert f"{metric:14s}" in output
        assert entry["end_to_end"]["failed_frac"]["median"] == 0
        assert set(entry["per_layer"]) >= {m for m, _, _ in schema.PER_LAYER}
        assert entry["per_layer"]["simulation.events"] > 0
    train = ledger["workloads"]["train_exact"]["per_layer"]
    replay = ledger["workloads"]["scatter_w128"]["per_layer"]
    assert train["substrate.compute_s"] > 0 and replay["substrate.compute_s"] == 0


def test_span_self_times_sum_to_their_root(smoke_ledgers):
    paths, _ = smoke_ledgers
    for name in schema.WORKLOADS:
        trace = json.loads(paths[0].with_name(f"a.{name}.trace.json").read_text())
        spans = {e["args"]["span"]: e for e in trace["traceEvents"]}
        assert {e["args"]["trace_id"] for e in spans.values()} == {
            f"{name}/smoke/20210620"
        }
        self_time = {index: e["dur"] for index, e in spans.items()}
        root_of = {}
        for index in sorted(spans):  # parents are recorded before children
            parent = spans[index]["args"]["parent"]
            root_of[index] = index if parent is None else root_of[parent]
            if parent is not None:
                self_time[parent] -= spans[index]["dur"]
        for root in (i for i, e in spans.items() if e["name"] == "section"):
            total = sum(t for i, t in self_time.items() if root_of[i] == root)
            assert total == pytest.approx(spans[root]["dur"], rel=0.02)
            assert all(t >= -0.02 * spans[root]["dur"]
                       for i, t in self_time.items() if root_of[i] == root)


def test_second_run_is_identical_and_compares_unchanged(smoke_ledgers):
    paths, _ = smoke_ledgers
    a, b = (json.loads(path.read_text()) for path in paths)
    for name in schema.WORKLOADS:
        wa, wb = a["workloads"][name], b["workloads"][name]
        assert wa["digest"] == wb["digest"]
        assert set(wa["exact"]) == schema.EXACT
        assert wa["exact"] == wb["exact"]
    lines, ok = compare.compare(a, a)
    assert ok
    verdicts = [line for line in lines if "(bound" in line]
    assert len(verdicts) == 5 * len(schema.WORKLOADS)
    assert all("unchanged" in line for line in verdicts)
    # Host times differ between the two runs; exact counts must not.
    lines, _ = compare.compare(a, b)
    assert not [line for line in lines if "DIFFERS" in line]


def test_compare_flags_an_exact_difference_and_a_regression(smoke_ledgers):
    paths, _ = smoke_ledgers
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[0].read_text())
    b["workloads"]["scatter_w128"]["exact"]["simulation.events"] += 1
    wall = b["workloads"]["train_exact"]["end_to_end"]["wall_s"]
    for key in ("median", "min", "max"):
        wall[key] *= 1.5
    lines, ok = compare.compare(a, b)
    assert not ok
    assert any("DIFFERS simulation.events" in line for line in lines)
    assert any("train_exact" in line and "wall_s" in line and "regressed" in line
               for line in lines)
    # A workload only one side ran fails the comparison, whichever side.
    b = json.loads(paths[0].read_text())
    del b["workloads"]["sweep_replay"]
    for first, second in ((a, b), (b, a)):
        lines, ok = compare.compare(first, second)
        assert not ok
        assert [line for line in lines if "MISSING" in line] != []
        assert not [line for line in lines if "regressed" in line or "DIFFERS" in line]


def test_verdict_rules():
    def runs(*values):
        ordered = sorted(values)
        return {"median": ordered[len(ordered) // 2], "min": ordered[0],
                "max": ordered[-1], "n": len(ordered)}

    parent = runs(1.00, 1.01, 1.02)
    assert compare.verdict(parent, runs(1.00, 1.02, 1.03), 0.10) == "unchanged"
    assert compare.verdict(parent, runs(1.11, 1.13, 1.14), 0.10) == "regressed"
    assert compare.verdict(parent, runs(0.90, 0.95, 0.99), 0.10) == "improved"
    assert compare.verdict(parent, runs(0.90, 1.00, 1.20), 0.10) == "unresolved"
    # One run a side cannot claim an improvement by order alone.
    assert compare.verdict(runs(1.0), runs(0.99), 0.10) == "unchanged"
    assert compare.verdict(runs(0.0), runs(0.5), 0.0) == "regressed"
