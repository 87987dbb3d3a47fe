"""A dense process never imports scipy, and the sparse path's private
scipy kernels exist.

scipy's sparse stack (~75 modules, ~0.1 s and ~13 MB per process)
loads where a CSR matrix is first built: rcv1/criteo synthesis. Every
entry point and a dense training run must leave it unloaded. The check
runs in a fresh interpreter, since this test process has scipy loaded
already.

The sparse path calls compiled routines of the private module
``scipy.sparse._sparsetools`` directly (bound inside functions, so the
first sparse batch, not an import, is where a renamed one would fail).
The second test reads every name bound from it under ``src/repro`` and
asserts that the installed scipy still has each one.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

PROGRAM = """
import sys

import repro, repro.api, repro.cli, repro.service, repro.serving, repro.sweep.orchestrator
from repro.core.config import TrainingConfig
from repro.core.driver import train
from repro.data.synth import generate


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


for model, algorithm in (("lr", "ma_sgd"), ("kmeans", "em")):
    train(TrainingConfig(model=model, algorithm=algorithm, dataset="higgs",
                         workers=4, max_epochs=1, data_scale=5000))
assert not scipy_modules(), f"a dense run loaded {scipy_modules()[:5]}"

X = generate("rcv1", scale=5000, seed=0).X_train
assert "scipy.sparse" in scipy_modules()
assert X.format == "csr", type(X)
"""


def test_dense_run_never_imports_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                          capture_output=True, text=True, timeout=100)
    assert done.returncode == 0, done.stderr


SPARSETOOLS = "scipy.sparse._sparsetools"


def _sparsetools_names() -> dict[str, list[str]]:
    """Name bound from ``_sparsetools`` -> the files that bind it."""
    names: dict[str, list[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            bound = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom) and node.module == SPARSETOOLS:
                for name in bound:
                    names.setdefault(name, []).append(path.name)
            # Any other spelling would hide its names from this test.
            assert not (isinstance(node, ast.Import) and SPARSETOOLS in bound), path
            assert not (isinstance(node, ast.ImportFrom) and node.module == "scipy.sparse"
                        and "_sparsetools" in bound), path
    return names


def test_every_private_scipy_kernel_exists():
    from scipy.sparse import _sparsetools

    names = _sparsetools_names()
    assert {"csr_matvec", "csc_matvec", "csr_row_index"} <= set(names)
    missing = {name: files for name, files in names.items() if not hasattr(_sparsetools, name)}
    assert not missing, f"scipy.sparse._sparsetools lacks {missing}"
