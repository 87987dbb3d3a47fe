"""Unit tests for utility helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import sparse

from repro.errors import SimulationError
from repro.simulation.commands import Put
from repro.simulation.engine import Engine
from repro.storage.services import S3Store
from repro.utils.rng import make_rng, spawn
from repro.utils.serialization import SizedPayload


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


def refused_put(value) -> None:
    """`value`, put unsized, is refused before the clock or the store's queue moves."""
    engine, store = Engine(), S3Store()

    def writer():
        yield Put(store, "k", value)

    engine.spawn(writer(), "writer")
    with pytest.raises(SimulationError, match="writer: put of 'k' carries no size"):
        engine.run()
    assert engine.now == 0.0
    assert store.queue.free == [0.0] * len(store.queue.free)
    assert store._do_list("") == []


class TestPayloadSizing:
    """A transfer's size is its sender's: only a SizedPayload is put."""

    def test_ndarray_size(self):
        refused_put(np.zeros(10, dtype=np.float64))
        refused_put(np.zeros(10, dtype=np.float32))

    def test_sparse_size(self):
        refused_put(sparse.random(10, 100, density=0.1, format="csr"))

    def test_sized_payload_overrides(self):
        # The booked size is the payload's nbytes, whatever the value's own
        # buffer: 12 MiB over S3's 65 MiB/s after its 80 ms latency.
        engine, store = Engine(), S3Store()
        payload = SizedPayload(np.zeros(2), 12 * 1024 * 1024)
        booked = []

        def writer():
            booked.append((yield Put(store, "k", payload)))

        engine.spawn(writer(), "writer")
        engine.run()
        assert booked == [12 * 1024 * 1024]
        assert engine.now == 8e-2 + payload.nbytes / (65 * 1024 * 1024)
        assert store._do_get("k") is payload

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
        engine, store = Engine(), S3Store()

        def writer():
            yield Put(store, "k", SizedPayload(np.zeros(1), nbytes))

        engine.spawn(writer(), "writer")
        with pytest.raises(ValueError):
            engine.run()
        assert engine.now == 0.0
        assert all(math.isfinite(t) for t in store.queue.free)

    def test_container_sizes_sum(self):
        refused_put([np.zeros(2), np.zeros(3)])
        refused_put({"a": np.zeros(1)})

    def test_scalar_and_bytes(self):
        for value in (b"abcd", "héllo", 3.14, 7, None):
            refused_put(value)

    def test_unknown_object_never_free(self):
        class Thing:
            pass

        refused_put(Thing())

    def test_reader_takes_the_payload_value(self):
        # A reader takes the value out of the payload the sender wrote.
        arr = np.zeros(2)
        assert SizedPayload(arr, 10).value is arr
        refused_put(arr)
