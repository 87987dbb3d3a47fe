"""Unit tests for utility helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import sparse

from repro.errors import SimulationError
from repro.pricing.meter import CostMeter
from repro.service import service_metrics
from repro.simulation.commands import Put
from repro.simulation.engine import Engine
from repro.simulation.tracing import TimeBreakdown
from repro.storage.services import S3Store
from repro.utils.rng import make_rng, spawn
from repro.utils.serialization import SizedPayload
from repro.utils.stats import fold, jain_fairness, tally


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


class TestFold:
    """Every float total is one left-to-right add from 0 (Python 3.11's
    ``sum()``), on any interpreter. From 3.12 builtin ``sum()`` is
    compensated and gives 1.0 and 1.0000000000000002 below, so these
    fail on a 3.12+ interpreter if a total goes back to it."""

    def test_adversarial_vector(self):
        assert fold([1e16, 1.0, -1e16]) == 0.0
        assert fold([0.1] * 10) == 0.9999999999999999
        assert fold([]) == 0 and tally([]) == 0

    def test_the_totals_fold(self):
        meter, breakdown = CostMeter(), TimeBreakdown()
        for component, dollars in (("a", 1.0), ("b", 1e-16), ("c", 1e-16)):
            meter.add(component, dollars)
            breakdown.add(component, dollars)
        assert meter.total == 1.0 and breakdown.total == 1.0
        # 3.12's compensated sum() gives 0.3333333466666668 here.
        assert jain_fairness([1.0, 1e-8, 1e-8]) == 0.33333334666666675

    def test_service_scorecard_folds(self):
        records = [
            dict(tenant="t", completion_s=c, completed_s=c, queue_s=c, slowdown=1.0 + c,
                 cost_dollars=c, converged=True)
            for c in (1.0, 1e-16, 1e-16)
        ]
        card = service_metrics(records)
        assert card["total_cost"] == 1.0 and card["mean_queue_s"] == 1.0 / 3
        assert card["converged_jobs"] == 3

    def test_tally_counts_flags_and_ints(self):
        assert tally([True, False, True]) == 2
        assert tally(len(s) for s in ("ab", "", "c")) == 3
