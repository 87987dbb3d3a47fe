"""Unit tests for the FaaS substrate: limits, startup, lifetime, checkpoints."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, FunctionTimeoutError
from repro.faas.checkpoint import checkpoint_bytes, checkpoint_key
from repro.faas.limits import LambdaLimits, lambda_speed_factor, lambda_vcpus
from repro.faas.runtime import FunctionLifetime, faas_startup_seconds


class TestLimits:
    def test_vcpu_scaling_matches_paper(self):
        # Table 2 annotations: 3 GB -> 1.8 vCPU, 1 GB -> 0.6 vCPU.
        assert lambda_vcpus(3.0) == pytest.approx(1.8)
        assert lambda_vcpus(1.0) == pytest.approx(0.6)

    def test_speed_factor_reference(self):
        assert lambda_speed_factor(3.0) == pytest.approx(1.0)
        assert lambda_speed_factor(1.0) == pytest.approx(1.0 / 3.0)

    def test_memory_cap_enforced(self):
        with pytest.raises(ConfigurationError):
            LambdaLimits(memory_gb=4.0)
        with pytest.raises(ConfigurationError):
            LambdaLimits(memory_gb=0.0)

    def test_lifetime_cap_enforced(self):
        with pytest.raises(ConfigurationError):
            LambdaLimits(lifetime_s=16 * 60.0)


class TestStartup:
    def test_anchors_match_table6(self):
        assert faas_startup_seconds(10) == pytest.approx(1.2)
        assert faas_startup_seconds(50) == pytest.approx(11.0)
        assert faas_startup_seconds(100) == pytest.approx(18.0)
        assert faas_startup_seconds(200) == pytest.approx(35.0)

    def test_interpolation_monotone(self):
        values = [faas_startup_seconds(w) for w in (1, 5, 10, 30, 75, 150, 200, 400)]
        assert values == sorted(values)

    def test_single_function_fast(self):
        assert faas_startup_seconds(1) <= 1.5

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            faas_startup_seconds(0)


class TestLifetime:
    def test_remaining_counts_down(self):
        lt = FunctionLifetime(LambdaLimits(), started_at=100.0)
        assert lt.remaining(100.0) == pytest.approx(900.0)
        assert lt.remaining(700.0) == pytest.approx(300.0)

    def test_needs_checkpoint_near_wall(self):
        lt = FunctionLifetime(LambdaLimits(), started_at=0.0)
        assert not lt.needs_checkpoint(0.0)
        assert lt.needs_checkpoint(880.0)
        # The estimate of the next round widens the margin.
        assert lt.needs_checkpoint(600.0, next_round_estimate_s=300.0)

    def test_reincarnation_resets_clock(self):
        lt = FunctionLifetime(LambdaLimits(), started_at=0.0)
        lt.reincarnate(850.0)
        assert lt.incarnations == 2
        assert lt.remaining(850.0) == pytest.approx(900.0)


class TestCheckpoint:
    def test_wire_size_includes_model(self):
        assert checkpoint_bytes(1000) == 1000 + 512

    def test_key_is_per_worker(self):
        assert "3" in checkpoint_key(3)
        assert checkpoint_key(3) != checkpoint_key(4)

    def test_recovery_checkpoint_stores_only_its_size(self):
        """A crash-injected run's checkpoints carry bytes, not a model:
        the successor resumes from the injector's round state."""
        from repro.core.config import TrainingConfig
        from repro.core.context import JobContext
        from repro.core.driver import finalize_job, launch_job
        from repro.utils.serialization import SizedPayload

        ctx = JobContext(TrainingConfig(
            model="lr", dataset="higgs", algorithm="ma_sgd", system="lambdaml",
            channel="s3", workers=4, batch_size=10_000, lr=0.05, data_scale=5000,
            loss_threshold=None, max_epochs=4, seed=3, mttf_s=60.0,
        ))
        launch_job(ctx)
        ctx.engine.run()
        result = finalize_job(ctx, 0.0, ctx.engine.now)
        assert result.events["crashes"] > 0
        for rank in range(ctx.config.workers):
            stored = ctx.data_store._do_get(checkpoint_key(rank))
            assert stored == SizedPayload(None, checkpoint_bytes(ctx.info.param_bytes))


class TestLifetimeInTraining:
    @pytest.mark.slow
    def test_long_job_checkpoints_and_finishes(self):
        """ResNet50 epochs exceed 15 minutes: Figure 5's path triggers."""
        from repro.core.config import TrainingConfig
        from repro.core.driver import train

        result = train(
            TrainingConfig(
                model="resnet50", dataset="cifar10", algorithm="ga_sgd",
                system="lambdaml", workers=10, channel="memcached",
                batch_size=32, batch_scope="per_worker", lr=0.05,
                loss_threshold=None, max_epochs=1.0, seed=1,
            )
        )
        # One epoch of RN at ~80 min/worker must have crossed the
        # 15-minute wall several times.
        assert result.checkpoints >= 10
        assert result.breakdown.get("checkpoint") > 0

    def test_oversized_round_raises(self):
        """A single >15-minute iteration is the paper's unsupported case."""
        from repro.core.config import TrainingConfig
        from repro.core.driver import train

        with pytest.raises(FunctionTimeoutError):
            train(
                TrainingConfig(
                    model="resnet50", dataset="cifar10", algorithm="ma_sgd",
                    system="lambdaml", workers=10, channel="memcached",
                    batch_size=32, batch_scope="per_worker", lr=0.05,
                    loss_threshold=None, max_epochs=1.0, seed=1,
                )
            )
