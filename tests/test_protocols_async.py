"""Tests for the asynchronous (S-ASP) protocol helpers and semantics."""

from __future__ import annotations

import numpy as np

from repro.comm.protocols import (
    GLOBAL_MODEL_KEY,
    async_read_model,
    async_should_stop,
    async_signal_stop,
    async_write_model,
    seed_global_model,
)
from repro.simulation.engine import Engine
from repro.storage.services import S3Store


class TestProtocolHelpers:
    def test_seed_and_read(self):
        engine = Engine()
        store = S3Store()
        seed_global_model(store, np.arange(4.0), 32)

        def proc():
            model = yield from async_read_model(store)
            return model

        p = engine.spawn(proc(), "reader")
        engine.run()
        np.testing.assert_allclose(p.result, np.arange(4.0))

    def test_write_overwrites_last_writer_wins(self):
        engine = Engine()
        store = S3Store()
        seed_global_model(store, np.zeros(2), 16)

        def writer(value, delay):
            from repro.simulation.commands import Sleep

            yield Sleep(delay)
            yield from async_write_model(store, np.full(2, value), 16)

        engine.spawn(writer(1.0, 1.0), "w1")
        engine.spawn(writer(2.0, 2.0), "w2")
        engine.run()
        final = store._do_get(GLOBAL_MODEL_KEY)
        np.testing.assert_allclose(final.value, np.full(2, 2.0))

    def test_stop_flag_roundtrip(self):
        engine = Engine()
        store = S3Store()
        outcome = {}

        def proc():
            before = yield from async_should_stop(store)
            yield from async_signal_stop(store, rank=3)
            after = yield from async_should_stop(store)
            outcome["before"], outcome["after"] = before, after

        engine.spawn(proc(), "p")
        engine.run()
        assert outcome == {"before": False, "after": True}


class TestStalenessEmergence:
    def test_interleaved_read_modify_write_loses_updates(self):
        """Two workers read the same model version; the slower writer
        clobbers the faster one's contribution — the staleness that
        destabilises ASP in Figure 8."""
        engine = Engine()
        store = S3Store()
        seed_global_model(store, np.zeros(1), 8)

        def worker(delay_before_write):
            from repro.simulation.commands import Sleep

            model = yield from async_read_model(store)
            yield Sleep(delay_before_write)
            yield from async_write_model(store, model + 1.0, 8)

        engine.spawn(worker(0.5), "fast")
        engine.spawn(worker(5.0), "slow")
        engine.run()
        final = store._do_get(GLOBAL_MODEL_KEY)
        # Two increments happened, but the final model shows only one.
        np.testing.assert_allclose(np.asarray(final.value), [1.0])
