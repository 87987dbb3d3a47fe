"""Integration tests: end-to-end training through the driver."""

from __future__ import annotations

import pytest

from repro.core.config import TrainingConfig, config_validity_error
from repro.core.context import JobContext
from repro.core.driver import finalize_job, launch_job, train
from repro.errors import ConfigurationError, OutOfMemoryError


def _config(**overrides) -> TrainingConfig:
    base = dict(
        model="lr",
        dataset="higgs",
        algorithm="ma_sgd",
        system="lambdaml",
        workers=4,
        channel="s3",
        batch_size=10_000,
        lr=0.05,
        loss_threshold=0.68,
        max_epochs=10,
        seed=13,
    )
    base.update(overrides)
    return TrainingConfig(**base)


class TestConfigValidation:
    def test_admm_rejected_for_nonconvex(self):
        with pytest.raises(ConfigurationError):
            _config(model="mobilenet", dataset="cifar10", algorithm="admm")

    def test_em_only_for_kmeans(self):
        with pytest.raises(ConfigurationError):
            _config(algorithm="em")
        with pytest.raises(ConfigurationError):
            _config(model="kmeans", algorithm="ga_sgd")

    def test_asp_is_faas_only(self):
        with pytest.raises(ConfigurationError):
            _config(system="pytorch", protocol="asp")

    def test_unknown_system(self):
        with pytest.raises(ConfigurationError):
            _config(system="spark")

    @pytest.mark.parametrize(
        "field, value", [("channel", "ftp"), ("rpc", "soap"), ("partition_mode", "zipf")]
    )
    def test_closed_set_fields_are_checked_at_construction(self, field, value):
        # These three used to construct and fail in setup_faas /
        # make_parameter_server / make_shards, after dataset synthesis.
        with pytest.raises(ConfigurationError, match=f"unknown {field} '{value}'"):
            _config(**{field: value})
        error = config_validity_error(
            {"model": "lr", "dataset": "higgs", field: value}
        )
        assert error is not None and field in error

    def test_algorithm_aliases_and_zoo_errors_survive(self):
        # `algorithm` is closed on the CLI but make_algorithm owns its
        # aliases; model/dataset keep the zoo's and spec table's errors.
        assert _config(algorithm="MA-SGD").algorithm == "MA-SGD"
        with pytest.raises(ConfigurationError, match="unknown dataset"):
            _config(dataset="mnist")

    @pytest.mark.parametrize("interval", [0, -1, float("inf"), float("nan")])
    def test_poll_interval_must_be_positive_and_finite(self, interval):
        with pytest.raises(ConfigurationError, match="poll_interval_s"):
            _config(poll_interval_s=interval)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr", float("nan")), ("lr", -0.5), ("lr", 0.0), ("lr", float("inf")),
            ("max_epochs", float("nan")),
            ("l2", -1.0), ("l2", float("nan")),
            ("admm_rho", float("nan")), ("admm_rho", -1.0),
            ("admm_scans", 0), ("ma_sync_epochs", 0),
            ("batch_size", 0), ("batch_size", -5), ("min_local_batch", 0),
            ("data_scale", 0), ("data_scale", -3), ("k", 0),
            ("lambda_lifetime_s", -5.0), ("lambda_lifetime_s", float("nan")),
            ("straggler_jitter", float("nan")), ("crash_rate", float("nan")),
            ("mttf_s", float("nan")), ("storage_retry_base_s", float("nan")),
            ("cold_start_jitter", float("nan")),
            # Infinite budgets and rates: a hang or a late, misleading failure.
            ("max_epochs", float("inf")), ("straggler_jitter", float("inf")),
            ("cold_start_jitter", float("inf")), ("crash_rate", float("inf")),
        ],
    )
    def test_out_of_range_hyper_parameters_are_refused(self, field, value):
        # Each of these used to construct and train a silent wrong
        # number (`--lr nan` ended "NOT converged at loss nan", exit 0).
        with pytest.raises(ConfigurationError, match=f"{field} must be"):
            _config(**{field: value})

    def test_platform_derived(self):
        assert _config().platform == "faas"
        assert _config(system="pytorch").platform == "iaas"
        assert _config(system="hybridps", algorithm="ga_sgd").platform == "hybrid"


class TestFaaSTraining:
    def test_lambdaml_converges_lr_higgs(self):
        result = train(_config())
        assert result.converged
        assert result.final_loss <= 0.68
        assert result.duration_s > 0
        assert result.cost_total > 0

    def test_breakdown_phases_present(self):
        result = train(_config(max_epochs=3, loss_threshold=None))
        for phase in ("startup", "load", "compute"):
            assert result.breakdown.get(phase) > 0, phase
        assert result.breakdown.communication > 0

    def test_deterministic_given_seed(self):
        a = train(_config())
        b = train(_config())
        assert a.duration_s == b.duration_s
        assert a.final_loss == b.final_loss
        assert a.cost_total == b.cost_total

    def test_seed_changes_trajectory(self):
        a = train(_config(seed=13))
        b = train(_config(seed=14))
        assert a.final_loss != b.final_loss

    def test_loss_history_recorded(self):
        result = train(_config(max_epochs=4, loss_threshold=None))
        assert len(result.history) >= 4 * 4  # per worker per epoch
        times = [p.time_s for p in result.history]
        assert times == sorted(times)

    def test_scatterreduce_pattern_trains(self):
        result = train(_config(pattern="scatterreduce"))
        assert result.converged

    def test_memcached_channel_adds_startup_wait(self):
        s3 = train(_config(max_epochs=2, loss_threshold=None))
        mc = train(_config(max_epochs=2, loss_threshold=None, channel="memcached"))
        # The job is gated on the ~140s ElastiCache startup.
        assert mc.duration_s > s3.duration_s
        assert mc.duration_s > 140.0

    def test_elasticache_billed(self):
        result = train(_config(channel="memcached", max_epochs=2, loss_threshold=None))
        assert result.cost_breakdown.get("elasticache", 0) > 0

    def test_kmeans_via_em(self):
        result = train(
            _config(model="kmeans", algorithm="em", loss_threshold=0.25, max_epochs=15)
        )
        assert result.converged

    def test_oom_for_oversized_partition(self):
        # Criteo at W=4 puts a 7.5 GB partition in a 3 GB function.
        with pytest.raises(OutOfMemoryError):
            train(_config(dataset="criteo", workers=4, batch_size=100_000))

    def test_admm_rounds_counted(self):
        result = train(_config(algorithm="admm", max_epochs=20))
        assert result.comm_rounds <= 3  # ten epochs per round + loss rounds


def _fanin_config(**overrides) -> TrainingConfig:
    """W=64 AllReduce: 63 followers poll through the leader's fan-in,
    so every round bills four-digit poll batches (the W <= 10 goldens
    never do)."""
    base = dict(
        model="lr", dataset="higgs", algorithm="ga_sgd", system="lambdaml",
        channel="s3", pattern="allreduce", workers=64, data_scale=500,
        batch_size=10_000, lr=0.05, loss_threshold=None, max_epochs=0.05,
        seed=20210620,
    )
    base.update(overrides)
    return TrainingConfig(**base)


class TestPollBilling:
    # Recorded at commit 8149d95, where every poll was one `+=` in a loop.
    @pytest.mark.parametrize(
        "channel,duration,cost,component",
        [
            ("s3", "0x1.9c11bfae3986bp+6", "0x1.c0261e6eff3d4p-1", "0x1.175c9b0b88382p-1"),
            ("dynamodb", "0x1.4dbaf7b5bd717p+6", "0x1.283c8afeb8417p-2", "0x1.6e9680e06657ap-6"),
        ],
    )
    def test_large_poll_batches_bill_the_per_poll_dollars(
        self, channel, duration, cost, component
    ):
        result = train(_fanin_config(channel=channel))
        assert result.duration_s.hex() == duration
        assert result.cost_total.hex() == cost
        assert result.cost_breakdown[channel].hex() == component

    def test_host_time_independent_of_the_simulated_poll_interval(self):
        # ~10^7 polls per wait: minutes if each one is a Python-level
        # add, so the per-test timeout is the assertion on host time.
        def run(interval):
            ctx = JobContext(_fanin_config(poll_interval_s=interval))
            launch_job(ctx)
            ctx.engine.run()
            return finalize_job(ctx, 0.0, ctx.engine.now), ctx.meter

        coarse, _ = run(0.05)
        fine, meter = run(1e-6)
        assert meter.counters["s3_list"] > 10**8
        # What the per-poll loop billed for these 5,243,195,004 polls
        # at commit 8149d95 (151 s of host time there).
        assert fine.cost_total.hex() == "0x1.99a13bfe8be0fp+14"
        assert fine.cost_total > coarse.cost_total
        assert fine.comm_rounds == coarse.comm_rounds

        def losses(result):
            return sorted((p.worker, p.epoch, p.loss) for p in result.history)

        assert losses(fine) == losses(coarse)


class TestIaaSTraining:
    def test_pytorch_converges(self):
        result = train(_config(system="pytorch"))
        assert result.converged

    def test_iaas_startup_dominates_short_jobs(self):
        faas = train(_config())
        iaas = train(_config(system="pytorch"))
        assert iaas.startup_s > 100
        assert faas.startup_s < 5
        assert iaas.duration_s > faas.duration_s

    def test_iaas_cheaper_or_similar_cost(self):
        faas = train(_config())
        iaas = train(_config(system="pytorch"))
        # The key qualitative claim: FaaS is faster but not cheaper.
        assert faas.cost_total > 0.3 * iaas.cost_total

    def test_angel_slower_than_pytorch(self):
        pytorch = train(_config(system="pytorch", max_epochs=3, loss_threshold=None))
        angel = train(_config(system="angel", max_epochs=3, loss_threshold=None))
        assert angel.duration_s > pytorch.duration_s
        assert angel.breakdown.get("startup") > pytorch.breakdown.get("startup")

    def test_gpu_instance_accelerates_nn(self):
        cpu = train(
            _config(
                model="mobilenet", dataset="cifar10", algorithm="ga_sgd",
                system="pytorch", workers=4, batch_size=128,
                batch_scope="per_worker", loss_threshold=None, max_epochs=1,
            )
        )
        gpu = train(
            _config(
                model="mobilenet", dataset="cifar10", algorithm="ga_sgd",
                system="pytorch", workers=4, batch_size=128,
                batch_scope="per_worker", loss_threshold=None, max_epochs=1,
                instance="g3s.xlarge",
            )
        )
        assert gpu.breakdown.get("compute") < cpu.breakdown.get("compute") / 5

    def test_vm_billing_by_duration(self):
        result = train(_config(system="pytorch", max_epochs=2, loss_threshold=None))
        expected = 4 * 0.0464 * result.duration_s / 3600.0
        assert result.cost_breakdown["ec2"] == pytest.approx(expected)


class TestHybridTraining:
    def test_hybrid_trains_lr(self):
        result = train(
            _config(system="hybridps", algorithm="ga_sgd", max_epochs=4, lr=0.3)
        )
        assert result.final_loss < 0.693

    def test_hybrid_requires_gradient_algorithm(self):
        with pytest.raises(ConfigurationError):
            train(_config(system="hybridps", algorithm="ma_sgd"))

    def test_hybrid_bills_ps_vm(self):
        result = train(
            _config(system="hybridps", algorithm="ga_sgd", max_epochs=2, loss_threshold=None)
        )
        assert result.cost_breakdown.get("ec2", 0) > 0
        assert result.cost_breakdown.get("lambda", 0) > 0

    def test_hybrid_gated_by_ps_startup(self):
        result = train(
            _config(system="hybridps", algorithm="ga_sgd", max_epochs=2, loss_threshold=None)
        )
        assert result.duration_s > 120.0  # PS VM boot


class TestAsyncTraining:
    def test_asp_runs_and_records(self):
        result = train(
            _config(protocol="asp", algorithm="ga_sgd", max_epochs=5, lr=0.3,
                    straggler_jitter=0.3)
        )
        assert result.epochs >= 1
        assert len(result.history) > 4

    def test_asp_faster_per_epoch_than_bsp(self):
        bsp = train(
            _config(algorithm="ga_sgd", max_epochs=2, loss_threshold=None, lr=0.3)
        )
        asp = train(
            _config(protocol="asp", algorithm="ga_sgd", max_epochs=2,
                    loss_threshold=None, lr=0.3)
        )
        assert asp.duration_s < bsp.duration_s
