"""Integration tests for AllReduce / ScatterReduce over storage channels."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.aggregator import reduce_vectors
from repro.comm.patterns import allreduce, scatter_reduce
from repro.errors import CommunicationError
from repro.simulation.engine import Engine
from repro.storage.services import S3Store

MB = 1024 * 1024
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def exchange(pattern, workers, logical_nbytes=1024, store=None):
    """Run one full exchange; returns (per-worker finish instants, engine time)."""
    engine = Engine()
    store = S3Store() if store is None else store
    finished = {}

    def worker(rank):
        yield from pattern(store, rank, workers, "r0", logical_nbytes)
        finished[rank] = engine.now

    for rank in range(workers):
        engine.spawn(worker(rank), f"w{rank}")
    engine.run()
    return finished, engine.now


class TestAggregator:
    def test_mean(self):
        out = reduce_vectors([np.array([1.0, 2.0]), np.array([3.0, 4.0])], "mean")
        np.testing.assert_allclose(out, [2.0, 3.0])

    def test_sum(self):
        out = reduce_vectors([np.array([1.0]), np.array([2.0])], "sum")
        np.testing.assert_allclose(out, [3.0])

    def test_empty_rejected(self):
        with pytest.raises(CommunicationError):
            reduce_vectors([], "mean")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(CommunicationError):
            reduce_vectors([np.zeros(2), np.zeros(3)], "mean")

    def test_unknown_reduction_rejected(self):
        with pytest.raises(CommunicationError):
            reduce_vectors([np.zeros(2)], "max")

    @pytest.mark.parametrize("reduce", ["mean", "sum"])
    @pytest.mark.parametrize("workers", [1, 3, 12])
    def test_float32_payloads_widen_exactly(self, workers, reduce):
        """The lockstep pass folds float32 payloads as they come: the
        float64 accumulator widens each one exactly, so the fold equals
        the fold of the payloads cast to float64 first, bit for bit."""
        rng = np.random.default_rng(workers)
        payloads = [
            (rng.standard_normal(257) * 10.0 ** rng.integers(-6, 6)).astype(np.float32)
            for _ in range(workers)
        ]
        out = reduce_vectors(payloads, reduce)
        assert out.dtype == np.float64
        pre_cast = reduce_vectors([p.astype(np.float64) for p in payloads], reduce)
        assert np.array_equal(out, pre_cast)
        assert all(p.dtype == np.float32 for p in payloads)  # the inputs are not widened


@pytest.mark.parametrize("pattern", [allreduce, scatter_reduce])
class TestPatternsCorrectness:
    def test_single_worker(self, pattern):
        store = S3Store()
        finished, _ = exchange(pattern, 1, store=store)
        assert list(finished) == [0]
        assert store._do_list("") == []  # nothing left for readers that never come

    @settings(max_examples=10, deadline=None)
    @given(workers=st.integers(min_value=2, max_value=6),
           nbytes=st.integers(min_value=0, max_value=10**7))
    def test_every_file_carries_the_logical_size(self, pattern, workers, nbytes):
        # The patterns move sizes, not values: every file is an empty
        # payload of the logical size (ScatterReduce: a 1/w chunk of it).
        store = S3Store()
        puts = []
        real = store._do_put

        def logged(key, value):
            puts.append((key, value.value, value.nbytes))
            return real(key, value)

        store._do_put = logged
        finished, _ = exchange(pattern, workers, nbytes, store=store)
        assert sorted(finished) == list(range(workers))
        size = nbytes if pattern is allreduce else max(1, nbytes // workers)
        files = workers + 1 if pattern is allreduce else workers * workers
        assert len(puts) == files
        assert {(value, n) for _, value, n in puts} == {(None, size)}
        assert store._do_list("") == []  # every round file retired by its last reader


@pytest.mark.parametrize("workers", [1, 2, 3, 64])
@pytest.mark.parametrize("pattern", [allreduce, scatter_reduce])
def test_no_round_key_is_a_proper_prefix_of_another(pattern, workers):
    """Why a count of one on ``ar/<round>/merged`` waits for that file alone.

    Every storage wait is a prefix count. A wait on a key is one whose
    target is a key the round puts: only the AllReduce follower's. No key
    a round puts or waits on is a proper prefix of another key it puts,
    and every wait's target covers exactly the files it counts.
    """
    store = S3Store()
    puts, waits = [], []
    put, wait = store._do_put, store.wait_for_count

    def logged_put(key, value):
        puts.append(key)
        return put(key, value)

    def logged_wait(prefix, needed, wake, proc):
        waits.append((prefix, needed))
        return wait(prefix, needed, wake, proc)

    store._do_put, store.wait_for_count = logged_put, logged_wait
    exchange(pattern, workers, store=store)
    keys = sorted(set(puts))
    assert len(keys) == len(puts)  # no key is put twice
    waited_keys = {prefix for prefix, _ in waits if prefix in keys}
    assert waited_keys == ({"ar/r0/merged"} if pattern is allreduce and workers > 1 else set())
    # A key that is a proper prefix of another sorts right before one of them.
    assert not [(a, b) for a, b in zip(keys, keys[1:]) if b.startswith(a)]
    for prefix, needed in waits:
        assert sum(key.startswith(prefix) for key in keys) == needed, prefix


class TestPatternTiming:
    def test_scatter_reduce_faster_for_large_models(self):
        """Table 3: the AllReduce leader bottlenecks on ResNet50-size."""
        workers = 10
        _, t_ar = exchange(allreduce, workers, logical_nbytes=89 * MB)
        _, t_sr = exchange(scatter_reduce, workers, logical_nbytes=89 * MB)
        assert t_sr < t_ar
        assert t_ar / t_sr > 1.5

    def test_allreduce_competitive_for_tiny_models(self):
        """Table 3: for a 224 B model ScatterReduce's extra requests lose."""
        workers = 10
        _, t_ar = exchange(allreduce, workers, logical_nbytes=224)
        _, t_sr = exchange(scatter_reduce, workers, logical_nbytes=224)
        assert t_sr >= t_ar * 0.9

    def test_exchange_time_grows_with_size(self):
        workers = 4
        _, small = exchange(allreduce, workers, logical_nbytes=1024)
        _, big = exchange(allreduce, workers, logical_nbytes=64 * MB)
        assert big > small


class TestRepeatedRounds:
    def test_multiple_rounds_do_not_leak_objects(self):
        engine = Engine()
        store = S3Store()
        workers = 3

        def worker(rank):
            for r in range(5):
                yield from allreduce(store, rank, workers, f"{r:04d}", 64)

        for rank in range(workers):
            engine.spawn(worker(rank), f"w{rank}")
        engine.run()
        # Parts are discarded after merging; only merged files remain.
        assert store._count_prefix("ar/") <= 5 + workers


def _imports(tree: ast.AST) -> set[str]:
    """Every module, and every ``module.name``, a module imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize("module", [
    "comm/patterns.py", "iaas/mpi.py", "core/bsp_loop.py", "simulation/engine.py",
])
def test_the_data_plane_imports_no_fold(module):
    """BSP floats are folded in the lockstep pass only: what times an
    exchange moves byte counts and takes nothing from the aggregator."""
    imported = _imports(ast.parse((SRC / module).read_text()))
    folds = {"repro.comm.aggregator", "repro.comm.reduce_vectors"}
    assert not {
        name for name in imported
        if name in folds or name.startswith("repro.comm.aggregator.")
    }

