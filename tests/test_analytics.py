"""Unit tests for the analytical model and estimator."""

from __future__ import annotations

import pytest

from repro.analytics.casestudy import HybridModel, q1_fast_hybrid, q2_hot_data
from repro.analytics.estimator import SamplingEstimator, _first_crossing
from repro.analytics.model import AnalyticalModel, WorkloadParams
from repro.errors import ConfigurationError
from repro.iaas.cluster import iaas_startup_seconds
from repro.iaas.vm import INSTANCES
from repro.storage.services import S3_PROFILE
from repro.utils.stats import log_interp

MB = 1024 * 1024


def _params(**overrides) -> WorkloadParams:
    base = dict(
        dataset_bytes=8 * 1024 * MB,  # Higgs
        model_bytes=224,
        epochs_faas=10.0,
        epochs_iaas=10.0,
        compute_faas_s=80.0,
        compute_iaas_s=80.0,
        rounds_per_epoch=1.0,
    )
    base.update(overrides)
    return WorkloadParams(**base)


class TestConstants:
    """The model's t_F(w) and t_I(w) are the simulator's start-up curves."""

    def _startup_only(self) -> AnalyticalModel:
        # No data, no epochs: a runtime is its start-up term alone.
        return AnalyticalModel(_params(dataset_bytes=0, epochs_faas=0.0, epochs_iaas=0.0))

    def test_startup_anchor_values(self):
        model = self._startup_only()
        assert model.faas_seconds(10) == pytest.approx(1.2)
        assert model.iaas_seconds(200) == pytest.approx(606.0)

    def test_startup_interpolation_between_anchors(self):
        mid = self._startup_only().iaas_seconds(75)
        assert 160.0 < mid < 292.0
        assert mid == iaas_startup_seconds(75)

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError, match="workers must be >= 1, got 0"):
            log_interp([(1, 1.0), (10, 2.0)], 0)


class TestAnalyticalModel:
    def test_faas_has_extra_communication_leg(self):
        # The paper's legs, exactly: FaaS bounces every aggregate off S3
        # (3w-2 legs), IaaS rings over t2.medium's link (2w-2 legs).
        m = 12 * MB
        model = AnalyticalModel(_params(model_bytes=m))
        t2 = INSTANCES["t2.medium"]
        for w in (1, 2, 10, 100):
            assert model.faas_comm_seconds(w) == (3 * w - 2) * (
                (m / w) / S3_PROFILE.bandwidth_bps + S3_PROFILE.latency_s
            )
            assert model.iaas_comm_seconds(w) == (2 * w - 2) * (
                (m / w) / t2.network_bps + t2.network_latency_s
            )

    def test_startup_dominates_faas_advantage(self):
        model = AnalyticalModel(_params())
        w = 10
        assert model.iaas_seconds(w) - model.faas_seconds(w) > 100.0

    def test_compute_term_shrinks_with_workers(self):
        model = AnalyticalModel(_params(epochs_faas=100.0))
        assert model.faas_seconds(100) < model.faas_seconds(2)

    def test_communication_term_grows_with_workers(self):
        model = AnalyticalModel(_params(model_bytes=90 * MB, compute_faas_s=0.0))
        assert model.faas_comm_seconds(100) > model.faas_comm_seconds(10)

    def test_scaling_factor_applied(self):
        lossy = _params(scaling_faas=lambda w: float(w))
        base = _params()
        assert (
            AnalyticalModel(lossy).faas_seconds(10)
            > AnalyticalModel(base).faas_seconds(10)
        )

    def test_elasticache_channel_faster_than_s3_for_big_models(self):
        s3 = AnalyticalModel(_params(model_bytes=12 * MB, channel="s3"))
        ec = AnalyticalModel(_params(model_bytes=12 * MB, channel="elasticache"))
        assert ec.faas_comm_seconds(10) < s3.faas_comm_seconds(10)

    def test_cost_positive_and_scales_with_runtime(self):
        model = AnalyticalModel(_params())
        assert model.faas_cost(10) > 0
        assert model.iaas_cost(10, "t2.medium") > 0
        longer = AnalyticalModel(_params(epochs_faas=100.0))
        assert longer.faas_cost(10) > model.faas_cost(10)

    def test_unknown_channel_rejected(self):
        model = AnalyticalModel(_params(channel="carrier-pigeon"))
        with pytest.raises(ValueError):
            model.faas_comm_seconds(10)


class TestHybridModel:
    def test_hybrid_gated_by_ps_startup(self):
        hybrid = HybridModel(_params())
        assert hybrid.seconds(10) >= iaas_startup_seconds(1)

    def test_10g_link_reduces_comm(self):
        now = HybridModel(_params(model_bytes=12 * MB))
        fast = HybridModel(
            _params(model_bytes=12 * MB),
            faas_vm_bandwidth=1250 * MB,
            serdes_bandwidth=1250 * MB,
        )
        assert fast.comm_seconds(10) < now.comm_seconds(10) / 5

    def test_q1_shapes(self):
        out = q1_fast_hybrid(_params(model_bytes=12 * MB, rounds_per_epoch=40.0), 10)
        assert set(out) == {"faas", "iaas", "hybrid", "hybrid-10g"}
        assert out["hybrid-10g"][0] < out["hybrid"][0]

    def test_q2_iaas_wins_on_hot_data(self):
        # 110 GB dataset resident in a VM: FaaS ingestion is the bottleneck.
        params = _params(dataset_bytes=110 * 1024 * MB, model_bytes=32 * 1024 * 8)
        out = q2_hot_data(params, 10)
        assert out["iaas"][0] < out["faas"][0]
        assert out["iaas"][0] < out["hybrid"][0]


class TestEstimator:
    def test_first_crossing_interpolates(self):
        trajectory = [(0.0, 1.0), (1.0, 0.5), (2.0, 0.1)]
        crossing = _first_crossing(trajectory, 0.3)
        assert 1.0 < crossing < 2.0

    def test_first_crossing_none_when_unreached(self):
        assert _first_crossing([(0.0, 1.0), (1.0, 0.9)], 0.5) is None

    def test_first_crossing_at_start(self):
        assert _first_crossing([(0.0, 0.2), (1.0, 0.1)], 0.3) == 0.0

    def test_estimates_reasonable_epochs_for_lr_higgs(self):
        estimator = SamplingEstimator(sample_fraction=0.1, seed=3)
        estimate = estimator.estimate(
            "lr", "higgs", "ma_sgd", lr=0.05, threshold=0.67, batch_size=100
        )
        assert estimate.converged
        assert 0 < estimate.epochs <= 30

    def test_admm_estimated_in_round_granularity(self):
        estimator = SamplingEstimator(sample_fraction=0.1, seed=3)
        estimate = estimator.estimate(
            "lr", "higgs", "admm", lr=0.05, threshold=0.67, batch_size=100
        )
        assert estimate.converged
        # ADMM progresses in 10-epoch rounds.
        assert estimate.epochs <= 30

    def test_invalid_fraction_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SamplingEstimator(sample_fraction=0.0)

    def test_trajectory_recorded(self):
        estimator = SamplingEstimator(sample_fraction=0.05, seed=3)
        estimate = estimator.estimate(
            "lr", "higgs", "ma_sgd", lr=0.05, threshold=0.0, batch_size=100,
            max_epochs=3,
        )
        assert not estimate.converged
        assert len(estimate.trajectory) == 4  # init + 3 epochs
