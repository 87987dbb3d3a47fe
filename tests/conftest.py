"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

# Pin BLAS to one thread *before* numpy loads: multithreaded reductions
# reorder float sums under load, which can flip knife-edge convergence
# assertions between runs. Single-threaded numpy is bit-deterministic
# (and faster on this suite's small matrices).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import signal
import threading

import numpy as np
import pytest

from repro.pricing.meter import CostMeter
from repro.simulation.engine import Engine
from repro.storage.services import S3Store


@pytest.fixture(autouse=True)
def _per_test_timeout(request):
    """Abort any test that exceeds the pytest.ini wall-clock ceiling.

    A complexity regression on the engine's hot path used to *hang*
    the suite (the seed's O(w^3) notify scans never finished); this
    turns it into one fast, attributable failure. SIGALRM only works
    on the main thread of a POSIX process — anywhere else the fixture
    is a no-op.
    """
    seconds = float(request.config.getini("per_test_timeout_s"))
    if (
        seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _abort(signum, frame):
        raise TimeoutError(
            f"{request.node.nodeid} exceeded the {seconds:.0f}s per-test timeout "
            "(per_test_timeout_s in pytest.ini)"
        )

    previous = signal.signal(signal.SIGALRM, _abort)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def s3() -> S3Store:
    return S3Store(meter=CostMeter())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(7)


@pytest.fixture
def pool_widths(monkeypatch) -> list[int]:
    """The width of every process pool a sweep opens (inline runs open none)."""
    import repro.sweep.orchestrator as orchestrator

    widths: list[int] = []
    real_pool = orchestrator.run_resilient_pool

    def counting_pool(tasks, width, *args, **kwargs):
        widths.append(width)
        return real_pool(tasks, width, *args, **kwargs)

    monkeypatch.setattr(orchestrator, "run_resilient_pool", counting_pool)
    return widths
