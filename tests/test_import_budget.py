"""A dense process never imports scipy.

scipy's sparse stack (~75 modules, ~0.1 s and ~13 MB per process)
loads where a CSR matrix is first built: rcv1/criteo synthesis. Every
entry point and a dense training run must leave it unloaded. The check
runs in a fresh interpreter, since this test process has scipy loaded
already.
"""

from __future__ import annotations

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
