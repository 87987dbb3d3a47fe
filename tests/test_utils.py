"""Unit tests for utility helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import sparse

from repro.utils.rng import make_rng, spawn
from repro.utils.serialization import SizedPayload, payload_nbytes, unwrap


class TestRng:
    def test_int_seed_deterministic(self):
        a = make_rng(5).standard_normal(4)
        b = make_rng(5).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_spawn_children_independent(self):
        children = spawn(make_rng(1), 3)
        draws = [c.standard_normal(8) for c in children]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_spawn_deterministic(self):
        a = [c.standard_normal(2) for c in spawn(make_rng(9), 2)]
        b = [c.standard_normal(2) for c in spawn(make_rng(9), 2)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestPayloadSizing:
    def test_ndarray_size(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
        assert payload_nbytes(np.zeros(10, dtype=np.float32)) == 40

    def test_sparse_size(self):
        X = sparse.random(10, 100, density=0.1, format="csr")
        nbytes = payload_nbytes(X)
        assert nbytes >= X.data.nbytes

    def test_sized_payload_overrides(self):
        payload = SizedPayload(np.zeros(2), 12 * 1024 * 1024)
        assert payload_nbytes(payload) == 12 * 1024 * 1024

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SizedPayload(None, -1)

    @pytest.mark.parametrize("nbytes", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_size_rejected(self, nbytes):
        with pytest.raises(ValueError, match="must be >= 0 and finite"):
            SizedPayload(None, nbytes)

    @pytest.mark.parametrize("nbytes", [float("nan"), float("inf")])
    def test_non_finite_size_never_reaches_the_clock(self, nbytes):
        # Unchecked, a NaN size "completed" a put at t = 0 and left a NaN
        # in the store's slot heap; an infinite one drove the clock to inf.
        from repro.simulation.commands import Put
        from repro.simulation.engine import Engine
        from repro.storage.services import S3Store

        engine, store = Engine(), S3Store()

        def writer():
            yield Put(store, "k", SizedPayload(np.zeros(1), nbytes))

        engine.spawn(writer(), "writer")
        with pytest.raises(ValueError):
            engine.run()
        assert engine.now == 0.0
        assert all(math.isfinite(t) for t in store.queue.free)

    def test_container_sizes_sum(self):
        assert payload_nbytes([np.zeros(2), np.zeros(3)]) == 16 + 24
        assert payload_nbytes({"a": np.zeros(1)}) == payload_nbytes("a") + 8

    def test_scalar_and_bytes(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes("héllo") == len("héllo".encode())
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes(None) == 8

    def test_unknown_object_never_free(self):
        class Thing:
            pass

        assert payload_nbytes(Thing()) > 0

    def test_unwrap(self):
        arr = np.zeros(2)
        assert unwrap(SizedPayload(arr, 10)) is arr
        assert unwrap(arr) is arr
