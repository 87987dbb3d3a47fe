"""Benchmark harness plumbing.

Each benchmark regenerates one table/figure of the paper at a scale
that finishes in seconds-to-minutes, then writes the formatted rows to
`benchmarks/reports/<name>.txt` — those files are the reproduction
record. Per-test host seconds come from pytest.ini's `--durations`.
"""

from __future__ import annotations

import os
from pathlib import Path

# Bit-deterministic numpy regardless of machine load (see tests/conftest.py).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

REPORTS_DIR = Path(__file__).parent / "reports"


@pytest.fixture(scope="session")
def report_dir() -> Path:
    REPORTS_DIR.mkdir(exist_ok=True)
    return REPORTS_DIR


@pytest.fixture
def write_report(report_dir):
    def _write(name: str, text: str) -> None:
        path = report_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[report saved to {path}]")

    return _write

