"""The fault plane's primitives: plans, retries, engine kill semantics.

Everything here is about *determinism*: fault schedules are pure
functions of the seed, so the same config must inject byte-identical
faults in any process, and the engine must keep its bookkeeping exact
when processes die mid-wait.
"""

from __future__ import annotations

import pytest

from repro.core.config import TrainingConfig
from repro.errors import (
    ConfigurationError,
    TransientStorageError,
)
from repro.faults import (
    BACKOFF_FACTOR,
    MAX_BACKOFF_S,
    FaultPlan,
    RetryPolicy,
    StorageFaultPolicy,
    unit_draw,
)
from repro.simulation.commands import Put, Sleep, WaitKeyCount
from repro.simulation.engine import Engine, ProcessState
from repro.simulation.tracing import TimeBreakdown
from repro.storage.services import S3Store
from repro.utils.serialization import SizedPayload


def _book(store, op, nbytes, issued):
    """(first attempt's start, completion) of one op, read back from the trace."""
    trace = TimeBreakdown()
    end = store.book(op, nbytes, issued, trace, "comm")
    return issued + trace.get("wait"), end


def _take(iterator, n):
    out = []
    for value in iterator:
        out.append(value)
        if len(out) == n:
            break
    return out


class TestFaultPlanDeterminism:
    def test_unit_draw_is_stable_and_uniformish(self):
        draws = [unit_draw(7, "crash/0", i) for i in range(2000)]
        assert draws == [unit_draw(7, "crash/0", i) for i in range(2000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.45 < sum(draws) / len(draws) < 0.55

    def test_crash_streams_are_reproducible_per_rank(self):
        plan = FaultPlan(seed=3, mttf_s=120.0)
        first = _take(plan.crash_times(2), 16)
        again = _take(plan.crash_times(2), 16)
        assert first == again
        assert first == sorted(first)
        assert all(t > 0 for t in first)

    def test_ranks_do_not_share_crash_streams(self):
        plan = FaultPlan(seed=3, mttf_s=120.0)
        assert _take(plan.crash_times(0), 8) != _take(plan.crash_times(1), 8)

    def test_seed_changes_the_schedule(self):
        a = FaultPlan(seed=3, mttf_s=120.0)
        b = FaultPlan(seed=4, mttf_s=120.0)
        assert _take(a.crash_times(0), 8) != _take(b.crash_times(0), 8)

    def test_crash_interarrivals_have_roughly_the_requested_mean(self):
        plan = FaultPlan(seed=11, mttf_s=50.0)
        times = _take(plan.crash_times(0), 4000)
        mean = times[-1] / len(times)
        assert mean == pytest.approx(50.0, rel=0.1)

    def test_no_mttf_means_no_crashes(self):
        plan = FaultPlan(seed=3)
        assert _take(plan.crash_times(0), 5) == []
        assert not plan.crashes_enabled
        assert not plan.active

    def test_cold_start_jitter_bounds_and_determinism(self):
        plan = FaultPlan(seed=3, cold_start_jitter=0.5)
        draws = [plan.cold_start_s(1, inc, 1.0) for inc in range(2, 12)]
        assert draws == [plan.cold_start_s(1, inc, 1.0) for inc in range(2, 12)]
        assert all(1.0 <= d < 1.5 for d in draws)
        assert len(set(draws)) > 1  # actually varies per incarnation
        no_jitter = FaultPlan(seed=3)
        assert no_jitter.cold_start_s(1, 2, 1.0) == 1.0

    def test_storage_failures_respect_rate_and_limit(self):
        plan = FaultPlan(seed=3, storage_error_rate=0.3, retry=RetryPolicy(limit=4))
        counts = [plan.storage_failures("data", i) for i in range(4000)]
        assert counts == [plan.storage_failures("data", i) for i in range(4000)]
        assert all(0 <= c <= 5 for c in counts)  # capped at limit + 1
        rate = sum(1 for c in counts if c > 0) / len(counts)
        assert rate == pytest.approx(0.3, abs=0.05)
        # Independent streams per store label.
        assert counts != [plan.storage_failures("channel", i) for i in range(4000)]

    def test_plan_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=1, mttf_s=0.0)
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=1, storage_error_rate=1.0)
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=1, cold_start_jitter=-0.1)


class TestRetryPolicy:
    def test_backoff_grows_exponentially_then_caps(self):
        policy = RetryPolicy(limit=10, base_s=0.1)
        gaps = [policy.backoff_s(i) for i in range(8)]
        for i, gap in enumerate(gaps):
            assert gap == pytest.approx(min(0.1 * BACKOFF_FACTOR**i, MAX_BACKOFF_S))
        assert gaps[-1] == MAX_BACKOFF_S

    def test_total_backoff_sums_the_gaps(self):
        policy = RetryPolicy(limit=5, base_s=0.2)
        assert sum(policy.backoff_s(i) for i in range(3)) == pytest.approx(0.2 + 0.4 + 0.8)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(limit=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_s=-0.5)


class TestConfigFaultFields:
    def _config(self, **kw):
        return TrainingConfig(model="lr", dataset="higgs", algorithm="ma_sgd", **kw)

    def test_crash_rate_converts_to_mttf(self):
        assert self._config().fault_mttf_s is None
        assert self._config(crash_rate=4.0).fault_mttf_s == pytest.approx(900.0)
        assert self._config(crash_rate=4.0, mttf_s=60.0).fault_mttf_s == 60.0

    def test_faults_enabled_flag(self):
        assert not self._config().faults_enabled
        assert self._config(crash_rate=1.0).faults_enabled
        assert self._config(storage_error_rate=0.01).faults_enabled

    def test_crash_injection_refused_for_timing_coupled_platforms(self):
        with pytest.raises(ConfigurationError, match="BSP FaaS/IaaS"):
            self._config(protocol="asp", crash_rate=1.0)
        with pytest.raises(ConfigurationError, match="BSP FaaS/IaaS"):
            TrainingConfig(
                model="lr", dataset="higgs", algorithm="ga_sgd",
                system="hybridps", mttf_s=100.0,
            )

    def test_storage_errors_allowed_anywhere(self):
        self._config(protocol="asp", storage_error_rate=0.01)

    def test_field_validation(self):
        for bad in (
            dict(crash_rate=-1.0),
            dict(mttf_s=-5.0),
            dict(storage_error_rate=1.5),
            dict(storage_retry_limit=-1),
            dict(storage_retry_base_s=-0.1),
            dict(cold_start_jitter=-0.2),
        ):
            with pytest.raises(ConfigurationError):
                self._config(**bad)

    def test_fault_axes_share_the_statistical_fingerprint(self):
        clean = self._config()
        faulty = self._config(
            crash_rate=8.0, storage_error_rate=0.05,
            storage_retry_limit=9, cold_start_jitter=0.3,
        )
        assert clean.stat_hash() == faulty.stat_hash()
        # ...but not the config hash: fault points are distinct artifacts.
        from repro.sweep.grid import config_hash

        assert config_hash(clean) != config_hash(faulty)


class TestStorageRetryLayer:
    def _flaky_store(self, rate=0.9, limit=5):
        store = S3Store()
        plan = FaultPlan(seed=3, storage_error_rate=rate, retry=RetryPolicy(limit=limit))
        store.fault_policy = StorageFaultPolicy(plan, "data")
        return store

    def test_fault_free_store_is_untouched(self):
        clean = S3Store()
        start, end = _book(clean, "put", 1000, 0.0)
        assert clean.fault_events == {
            "storage_errors": 0,
            "retries": 0,
            "backoff_s": 0.0,
            "exhaustions": 0,
        }
        profile = clean.profile
        assert end - start == pytest.approx(profile.latency_s + 1000 / profile.bandwidth_bps)

    def test_failed_attempts_stretch_the_operation_and_count_events(self):
        store = self._flaky_store(rate=0.9, limit=50)
        clean = S3Store()
        baseline = clean.profile.latency_s + 1000 / clean.profile.bandwidth_bps
        # With rate 0.9 the very first ops fail at least once.
        stretched = False
        for _ in range(20):
            start, end = _book(store, "put", 1000, 0.0)
            if end - start > baseline + 1e-12:
                stretched = True
        assert stretched
        assert store.fault_events["storage_errors"] > 0
        assert store.fault_events["retries"] == store.fault_events["storage_errors"]
        assert store.fault_events["backoff_s"] > 0

    def test_exhausted_retries_raise_transient_storage_error(self):
        store = self._flaky_store(rate=0.999, limit=0)
        with pytest.raises(TransientStorageError, match="retry budget"):
            for _ in range(50):
                _book(store, "get", 10, 0.0)

    def test_list_never_faults(self):
        store = self._flaky_store(rate=0.999, limit=0)
        for _ in range(50):
            _book(store, "list", 0, 0.0)
        assert store.fault_events["storage_errors"] == 0

    def test_retry_timing_is_deterministic(self):
        def run():
            store = self._flaky_store(rate=0.5, limit=8)
            return [_book(store, "put", 100, float(i)) for i in range(40)]

        assert run() == run()


class TestEngineKillSemantics:
    def test_killed_waiter_is_deregistered_and_never_billed(self):
        engine = Engine()
        store = S3Store()

        def waiter():
            yield WaitKeyCount(store, "late", 1, poll_interval=0.1)

        def producer():
            yield Sleep(5.0)
            yield Put(store, "late", SizedPayload(b"x", 1))

        blocked = engine.spawn(waiter(), "blocked")
        engine.spawn(producer(), "producer")
        engine.run(until=1.0)
        assert blocked.state is ProcessState.BLOCKED
        assert list(store._watched) == ["late"]
        engine.kill(blocked)
        assert not store._watched and blocked._pending_wait is None
        counters_at_kill = dict(store.fault_events)
        engine.run()
        # The put completed; nobody polled for it from beyond the grave.
        assert "late" in store._objects
        assert blocked.state is ProcessState.KILLED
        assert blocked.trace.get("wait") == 0.0
        assert store.fault_events == counters_at_kill

    def test_daemons_do_not_extend_the_simulated_clock(self):
        engine = Engine()

        def worker():
            yield Sleep(2.0)
            return "done"

        def monitor():
            while True:
                yield Sleep(100.0)

        proc = engine.spawn(worker(), "worker")
        engine.spawn(monitor(), "monitor", daemon=True)
        engine.run()
        assert proc.result == "done"
        # The monitor's pending 100 s wake-up must not drag the clock.
        assert engine.now == pytest.approx(2.0)

    def test_kill_mid_count_wait_unregisters_the_prefix(self):
        engine = Engine()
        store = S3Store()
        from repro.simulation.commands import WaitKeyCount

        def waiter():
            yield WaitKeyCount(store, "parts/", 3, poll_interval=0.1)

        def sleeper():
            yield Sleep(1.0)

        proc = engine.spawn(waiter(), "w")
        engine.spawn(sleeper(), "s")
        engine.run(until=0.5)
        assert list(store._watched) == ["parts/"]  # live counter watched
        engine.kill(proc)
        assert not store._watched and not store._prefix_lens  # cleanly released
