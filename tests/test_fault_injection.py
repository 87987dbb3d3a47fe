"""Fault injection: lifetime checkpoints, crash recovery, and the
golden invariance contract.

The acceptance bar of the fault plane (ISSUE 4): a BSP run with
injected crashes and storage retries must produce a loss trajectory
*bit-identical* to the fault-free run of the same statistical config —
only clocks, dollars and the time breakdown may move — and a fault-axis
sweep must record exactly one trace however many fault points the grid
holds.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.core.context import JobContext
from repro.core.driver import train
from repro.experiments import figR_reliability
from repro.faas.checkpoint import checkpoint_key
from repro.simulation.commands import Get, Put, Sleep
from repro.simulation.engine import Engine, ProcessState
from repro.storage.services import S3Store
from repro.sweep.artifacts import artifact_from_result
from repro.sweep.grid import SweepPoint
from repro.sweep.orchestrator import run_sweep
from repro.utils.serialization import SizedPayload

#: Down-scaled LR/Higgs MA-SGD job: ~0.3 s host wall per exact run.
FAST_BASE = dict(
    model="lr", dataset="higgs", algorithm="ma_sgd",
    workers=4, batch_size=10_000, lr=0.05, data_scale=5000,
    loss_threshold=None, max_epochs=4, seed=3,
)


def loss_trajectory(result):
    """The statistical story of a run, stripped of simulated time.

    ``time_s`` necessarily moves under faults (recovery takes time), so
    the invariance contract is over ``(epoch, worker, loss)`` — with
    the *losses compared bitwise* — plus the record multiset being
    exactly the fault-free one (no duplicates from re-executed rounds,
    no holes from lost incarnations).
    """
    return sorted((p.epoch, p.worker, p.loss) for p in result.history)


class TestLifetimeCheckpointing:
    def _short_lifetime_config(self, lifetime_s: float = 120.0) -> TrainingConfig:
        return TrainingConfig(
            model="lr",
            dataset="higgs",
            algorithm="ma_sgd",
            system="lambdaml",
            workers=4,
            channel="s3",
            batch_size=10_000,
            lr=0.05,
            lambda_lifetime_s=lifetime_s,
            loss_threshold=None,
            max_epochs=12,
            seed=3,
        )

    def test_short_lifetime_triggers_checkpoints(self):
        result = train(self._short_lifetime_config())
        assert result.checkpoints > 0
        assert result.breakdown.get("checkpoint") > 0

    @pytest.mark.slow
    def test_checkpointing_does_not_change_statistics(self):
        """Lifetime resets cost time but never perturb the math."""
        short = train(self._short_lifetime_config(lifetime_s=120.0))
        long = train(
            TrainingConfig(
                model="lr", dataset="higgs", algorithm="ma_sgd",
                system="lambdaml", workers=4, channel="s3",
                batch_size=10_000, lr=0.05, loss_threshold=None,
                max_epochs=12, seed=3,
            )
        )
        assert short.final_loss == pytest.approx(long.final_loss)
        assert short.epochs == long.epochs
        assert short.duration_s > long.duration_s  # overhead is real

    def test_extra_invocations_billed(self):
        result = train(self._short_lifetime_config())
        # 1 initial + checkpoints re-invocations, all billed.
        assert result.checkpoints > 0
        assert result.cost_breakdown["lambda"] > 0


class TestCrashRecovery:
    """A killed worker's successor resumes from its S3 checkpoint."""

    def test_kill_and_resume_from_checkpoint(self):
        engine = Engine()
        store = S3Store()
        progress = []

        def worker(start_step: int):
            params = None
            if start_step > 0:
                obj = yield Get(store, checkpoint_key(0))
                params = obj.value
            state = np.zeros(4) if params is None else params
            step = start_step
            while step < 10:
                state = state + 1.0
                yield Sleep(1.0, "compute")
                yield Put(store, checkpoint_key(0), SizedPayload(state.copy(), 64))
                progress.append(step)
                step += 1
            return state

        first = engine.spawn(worker(0), "incarnation-1")
        engine.run(until=4.5)  # crash mid-flight
        engine.kill(first)
        assert first.state is ProcessState.KILLED

        # The self-trigger starts a successor from the last checkpoint.
        last_done = max(progress)
        second = engine.spawn(worker(last_done + 1), "incarnation-2")
        engine.run()
        assert second.state is ProcessState.DONE
        # Work was conserved: final counter equals total steps.
        np.testing.assert_allclose(second.result, np.full(4, 10.0))

    def test_checkpoint_object_roundtrips_through_storage(self):
        engine = Engine()
        store = S3Store()
        original = {"epoch": 3.5, "round": 7, "params": np.arange(5.0)}

        def proc():
            yield Put(store, checkpoint_key(2), SizedPayload(original, 128))
            restored = yield Get(store, checkpoint_key(2))
            return restored

        p = engine.spawn(proc(), "p")
        engine.run()
        assert p.result.nbytes == 128
        assert p.result.value is original  # the object itself, not a copy
        np.testing.assert_allclose(p.result.value["params"], np.arange(5.0))


class TestGoldenFaultInvariance:
    """Crashes and retries move clocks and dollars, never the floats."""

    def test_faas_crashes_leave_the_trajectory_bit_identical(self):
        clean = train(TrainingConfig(system="lambdaml", channel="s3", **FAST_BASE))
        faulty = train(
            TrainingConfig(system="lambdaml", channel="s3", mttf_s=60.0, **FAST_BASE)
        )
        events = faulty.events
        assert events["crashes"] > 0
        assert events["reincarnations"] == events["crashes"]
        assert events["recovery_checkpoints"] > 0
        assert faulty.checkpoints > 0
        # The statistical story is untouched, bit for bit.
        assert loss_trajectory(faulty) == loss_trajectory(clean)
        assert faulty.final_loss == clean.final_loss
        assert faulty.epochs == clean.epochs
        # The systems story is not: recovery costs real time and money.
        assert faulty.duration_s > clean.duration_s
        assert faulty.cost_total > clean.cost_total
        assert clean.events["crashes"] == 0

    def test_faas_crash_runs_are_reproducible(self):
        config = TrainingConfig(system="lambdaml", channel="s3", mttf_s=60.0, **FAST_BASE)
        first = train(config)
        second = train(config)
        assert first.duration_s == second.duration_s
        assert first.cost_total == second.cost_total
        assert first.events == second.events
        assert loss_trajectory(first) == loss_trajectory(second)

    def test_storage_retries_leave_the_trajectory_bit_identical(self):
        clean = train(TrainingConfig(system="lambdaml", channel="s3", **FAST_BASE))
        flaky = train(
            TrainingConfig(
                system="lambdaml", channel="s3", storage_error_rate=0.05, **FAST_BASE
            )
        )
        assert flaky.events["storage_errors"] > 0
        assert flaky.events["storage_retries"] == flaky.events["storage_errors"]
        assert flaky.events["storage_backoff_s"] > 0
        assert loss_trajectory(flaky) == loss_trajectory(clean)
        assert flaky.final_loss == clean.final_loss
        assert flaky.duration_s > clean.duration_s
        assert flaky.cost_total > clean.cost_total  # retried requests are billed

    def test_iaas_crash_restarts_from_scratch(self):
        clean = train(TrainingConfig(system="pytorch", **FAST_BASE))
        faulty = train(TrainingConfig(system="pytorch", mttf_s=200.0, **FAST_BASE))
        assert faulty.events["restarts"] > 0
        assert faulty.events["reincarnations"] == 0  # no FaaS-style recovery
        assert faulty.checkpoints == 0  # IaaS baseline never checkpoints
        assert loss_trajectory(faulty) == loss_trajectory(clean)
        assert faulty.final_loss == clean.final_loss
        # Restart-from-scratch pays at least one whole lost attempt.
        assert faulty.duration_s > clean.duration_s

    def test_crashes_and_retries_compose(self):
        clean = train(TrainingConfig(system="lambdaml", channel="s3", **FAST_BASE))
        stormy = train(
            TrainingConfig(
                system="lambdaml", channel="s3", mttf_s=90.0,
                storage_error_rate=0.02, cold_start_jitter=0.5, **FAST_BASE
            )
        )
        assert stormy.events["crashes"] > 0
        assert stormy.events["storage_errors"] > 0
        assert loss_trajectory(stormy) == loss_trajectory(clean)
        assert stormy.final_loss == clean.final_loss

    def test_scatterreduce_survives_crashes_too(self):
        clean = train(
            TrainingConfig(
                system="lambdaml", channel="s3", pattern="scatterreduce", **FAST_BASE
            )
        )
        faulty = train(
            TrainingConfig(
                system="lambdaml", channel="s3", pattern="scatterreduce",
                mttf_s=60.0, **FAST_BASE
            )
        )
        assert faulty.events["crashes"] > 0
        assert loss_trajectory(faulty) == loss_trajectory(clean)
        assert faulty.final_loss == clean.final_loss


class TestFaultSweeps:
    """Fault axes are systems axes: one trace serves the whole grid."""

    def _fault_grid(self):
        base = dict(system="lambdaml", channel="s3", **FAST_BASE)
        points = [
            SweepPoint(
                "fault-grid", f"mttf={mttf}", config_kwargs=dict(base, mttf_s=mttf)
            )
            for mttf in (None, 120.0, 60.0)
        ]
        points.append(
            SweepPoint(
                "fault-grid", "flaky-storage",
                config_kwargs=dict(base, storage_error_rate=0.05),
            )
        )
        return points

    def test_auto_sweep_records_one_trace_for_n_fault_points(self, tmp_path):
        points = self._fault_grid()
        run = run_sweep(points, out_dir=tmp_path)
        assert run.stat_groups == 1
        assert run.recorded == 1
        assert run.replayed == len(points) - 1
        assert run.exact_runs == 0
        traces = list((tmp_path / "traces").glob("*.json"))
        assert len(traces) == 1
        # Every artifact shares the statistical outcome...
        losses = {a["result"]["final_loss"] for a in run.artifacts}
        assert len(losses) == 1
        # ...but the fault points paid for their reliability.
        durations = [a["result"]["duration_s"] for a in run.artifacts]
        assert durations[1] > durations[0]
        assert durations[2] > durations[1]  # shorter MTTF, more recovery
        events = run.artifacts[2]["result"]["events"]
        assert events["crashes"] > 0

    def test_figR_grid_shares_one_trace_and_faults_only_add_time(self):
        run = run_sweep(figR_reliability.sweep_points())
        assert len(run.artifacts) == 18
        assert (run.stat_groups, run.recorded) == (1, 1)
        assert len({a["result"]["final_loss"] for a in run.artifacts}) == 1
        for curve in figR_reliability.aggregate(run.artifacts):
            ordered = sorted(
                curve.points,
                key=lambda p: (p.crash_rate, p.storage_error_rate,
                               p.checkpoint_interval),
            )
            overheads = [p.overhead_s for p in ordered]
            for p in ordered:
                if p.crash_rate == 0 and p.storage_error_rate == 0:
                    assert p.overhead_s == 0.0, curve.series
            assert min(overheads) >= 0, (curve.series, overheads)
            # The rate-swept series peak at the top rate. The interval
            # series sweeps cadence at a FIXED rate, where which crash
            # lands where dominates: only non-negativity is a theorem.
            if curve.series != "faas-interval":
                assert overheads[-1] == max(overheads), (curve.series, overheads)

    @pytest.mark.slow
    def test_replayed_fault_artifacts_are_bit_identical_to_exact(self, tmp_path):
        # The oracle is one standalone train() per point, outside any
        # sweep: its own lockstep pass, replayed with its own crashes.
        points = self._fault_grid()
        auto = run_sweep(points, out_dir=tmp_path)

        def strip_meta(artifact):
            return {k: v for k, v in artifact.items() if k != "meta"}

        for point, auto_art in zip(points, auto.artifacts):
            exact = train(point.config())
            exact_art = artifact_from_result(point, exact)
            assert strip_meta(exact_art) == strip_meta(auto_art), point.label


def _pool_speed_factors(config_kwargs: dict) -> list[float]:
    """Top-level helper (picklable) for the straggler pool test."""
    ctx = JobContext(TrainingConfig(**config_kwargs))
    return [ctx.worker_speed(rank) for rank in range(ctx.config.workers)]


class TestStragglerDeterminism:
    """Same seed => same per-rank speed factors, everywhere.

    The jitter is a pure function of (rank, workers, straggler_jitter):
    no RNG is involved, so FaaS, IaaS and hybrid runs — and every
    worker of a ``--jobs N`` sweep pool — must agree on each rank's
    *relative* slowdown bit for bit.
    """

    JITTER = 0.37

    def _kwargs(self, system, **extra):
        kw = dict(
            model="lr", dataset="higgs", workers=6, batch_size=10_000,
            lr=0.05, data_scale=5000, straggler_jitter=self.JITTER, seed=3,
            algorithm="ga_sgd", system=system,
        )
        kw.update(extra)
        return kw

    def _relative_speeds(self, system, **extra) -> list[float]:
        ctx = JobContext(TrainingConfig(**self._kwargs(system, **extra)))
        speeds = [ctx.worker_speed(rank) for rank in range(ctx.config.workers)]
        return [speed / speeds[0] for speed in speeds]

    def test_same_seed_same_factors_across_platforms(self):
        faas = self._relative_speeds("lambdaml")
        iaas = self._relative_speeds("pytorch")
        hybrid = self._relative_speeds("hybridps")
        # FaaS and hybrid share the Lambda base speed: bitwise equal.
        assert faas == hybrid
        # IaaS divides a different base out, which may land one ulp
        # away; the jitter curve itself is identical.
        assert iaas == pytest.approx(faas, rel=1e-14)
        expected = [1.0 / (1.0 + self.JITTER * rank / 5) for rank in range(6)]
        assert faas == pytest.approx(expected, rel=1e-12)

    def test_factors_are_stable_across_repeated_contexts(self):
        assert self._relative_speeds("lambdaml") == self._relative_speeds("lambdaml")

    def test_factors_survive_the_process_pool_boundary(self):
        """A pooled sweep worker computes the exact same speeds."""
        kwargs = self._kwargs("lambdaml")
        inline = _pool_speed_factors(kwargs)
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        with ctx.Pool(processes=2) as pool:
            pooled = pool.map(_pool_speed_factors, [kwargs, kwargs])
        assert pooled[0] == inline
        assert pooled[1] == inline


class TestStragglerInjection:
    def test_stragglers_slow_bsp_rounds(self):
        def run_with(jitter: float):
            return train(
                TrainingConfig(
                    model="lr", dataset="higgs", algorithm="ma_sgd",
                    system="lambdaml", workers=6, channel="s3",
                    batch_size=10_000, lr=0.05, loss_threshold=None,
                    max_epochs=5, straggler_jitter=jitter, seed=3,
                )
            )

        uniform = run_with(0.0)
        skewed = run_with(0.5)
        assert skewed.duration_s > uniform.duration_s
        # Statistics are unaffected: same merged math either way.
        assert skewed.final_loss == pytest.approx(uniform.final_loss)

    def test_stragglers_increase_wait_not_compute_of_fastest(self):
        result = train(
            TrainingConfig(
                model="lr", dataset="higgs", algorithm="ma_sgd",
                system="lambdaml", workers=6, channel="s3",
                batch_size=10_000, lr=0.05, loss_threshold=None,
                max_epochs=5, straggler_jitter=0.5, seed=3,
            )
        )
        fastest = result.per_worker[0]
        slowest = result.per_worker[-1]
        assert slowest.get("compute") > fastest.get("compute")
        # The fast worker pays for the slow one in waiting time.
        assert fastest.get("wait") + fastest.get("merge") > 0


class TestCheckpointInterval:
    """``checkpoint_interval`` trades checkpoint overhead for recovery
    re-execution — a pure systems knob, invisible to statistics."""

    def test_interval_must_be_positive(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="checkpoint_interval"):
            TrainingConfig(checkpoint_interval=0, **FAST_BASE)

    def test_sparser_checkpoints_same_statistics(self):
        every = train(
            TrainingConfig(system="lambdaml", channel="s3", mttf_s=60.0, **FAST_BASE)
        )
        sparse = train(
            TrainingConfig(
                system="lambdaml", channel="s3", mttf_s=60.0,
                checkpoint_interval=4, **FAST_BASE,
            )
        )
        clean = train(TrainingConfig(system="lambdaml", channel="s3", **FAST_BASE))
        # Fewer recovery checkpoints taken; identical statistical story.
        assert 0 < sparse.events["recovery_checkpoints"] < every.events["recovery_checkpoints"]
        assert loss_trajectory(sparse) == loss_trajectory(every) == loss_trajectory(clean)
        # Sparser checkpoints expose longer re-execution windows, so the
        # clock (and the crash count along it) can only grow.
        assert sparse.duration_s > every.duration_s > clean.duration_s

    def test_interval_is_not_a_statistical_axis(self):
        from repro.core.config import STAT_FIELDS

        assert "checkpoint_interval" not in STAT_FIELDS
        a = TrainingConfig(
            system="lambdaml", channel="s3", mttf_s=60.0, **FAST_BASE
        )
        b = TrainingConfig(
            system="lambdaml", channel="s3", mttf_s=60.0,
            checkpoint_interval=4, **FAST_BASE,
        )
        assert a.stat_hash() == b.stat_hash()


class TestStorageExhaustionRecovery:
    """A worker that dies of retry exhaustion is re-invoked from its
    last checkpoint, exactly like a crash — the trajectory never moves."""

    def test_exhaustion_recovers_bit_identically(self):
        exhausted = train(
            TrainingConfig(
                system="lambdaml", channel="s3", mttf_s=60.0,
                storage_error_rate=0.4, storage_retry_limit=1, **FAST_BASE,
            )
        )
        clean = train(TrainingConfig(system="lambdaml", channel="s3", **FAST_BASE))
        events = exhausted.events
        assert events["storage_exhaustions"] > 0
        # Every exhaustion (and every crash) spawned a successor.
        assert events["reincarnations"] > events["crashes"]
        assert loss_trajectory(exhausted) == loss_trajectory(clean)
        assert exhausted.duration_s > clean.duration_s
        assert exhausted.cost_total > clean.cost_total

    def test_exhaustion_without_crash_machinery_is_fatal(self):
        from repro.errors import TransientStorageError

        # No mttf_s: no recovery machinery is installed, so blowing the
        # retry budget fails the job instead of silently retrying forever.
        with pytest.raises(TransientStorageError, match="exhausting"):
            train(
                TrainingConfig(
                    system="lambdaml", channel="s3",
                    storage_error_rate=0.4, storage_retry_limit=1, **FAST_BASE,
                )
            )

    def test_exhaustion_counts_surface_in_sweep_artifacts(self, tmp_path):
        point = SweepPoint(
            experiment="chaos", label="exhaustion",
            config_kwargs=dict(
                system="lambdaml", channel="s3", mttf_s=60.0,
                storage_error_rate=0.4, storage_retry_limit=1, **FAST_BASE,
            ),
        )
        run = run_sweep([point], out_dir=tmp_path)
        events = run.artifacts[0]["result"]["events"]
        assert events["storage_exhaustions"] > 0
        assert events["reincarnations"] > 0


class TestServiceFaultIsolation:
    """A crashing tenant on the shared service engine stays contained:
    neighbours' loss trajectories are bit-identical to their isolated
    runs, and retention GC keeps collecting under crash injection."""

    CLEAN = dict(system="lambdaml", channel="s3", **FAST_BASE)
    CRASHY = dict(system="lambdaml", channel="s3", mttf_s=60.0, **FAST_BASE)

    def _service_run(self):
        from repro.service import (
            BaselineProvider,
            JobRequest,
            ServiceRuntime,
            make_scheduler,
        )

        class ExactProvider(BaselineProvider):
            """Every tenant trains real numpy: no replay substrate."""

            def substrate_for(self, config):
                return None

        requests = [
            JobRequest("j000", "acct0", 0.0, dict(self.CLEAN)),
            JobRequest("j001", "acct1", 1.0, dict(self.CRASHY)),
            JobRequest("j002", "acct2", 2.0, dict(self.CLEAN, seed=5)),
        ]
        runtime = ServiceRuntime(
            requests, make_scheduler("fifo"), 3,
            ExactProvider(),
        )
        records = runtime.run()
        return runtime, {r["job"]: r for r in records}

    def test_neighbours_bit_identical_to_isolated_runs(self):
        runtime, by_job = self._service_run()
        assert by_job["j001"]["crashes"] > 0
        assert by_job["j000"]["crashes"] == 0
        assert by_job["j002"]["crashes"] == 0
        # Every tenant — the crashing one included — reproduces its
        # isolated trajectory exactly, despite sharing one engine and
        # one S3 capacity queue with a neighbour that keeps dying.
        for job, kwargs in (
            ("j000", self.CLEAN),
            ("j001", self.CRASHY),
            ("j002", dict(self.CLEAN, seed=5)),
        ):
            isolated = train(TrainingConfig(**kwargs))
            assert loss_trajectory(runtime.results[job]) == loss_trajectory(
                isolated
            )

    def test_retention_gc_collects_inside_the_service(self):
        _, by_job = self._service_run()
        assert by_job["j001"]["gc_collected_keys"] > 0
        # Fault-free tenants have no retention window (nothing to
        # collect deferred-style; their round files GC inline).
        assert by_job["j000"]["gc_collected_keys"] == 0
