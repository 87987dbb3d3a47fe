"""Unit tests for RunResult helpers and the model zoo profiles."""

from __future__ import annotations

import pytest

from repro.core.config import TrainingConfig
from repro.core.results import LossPoint, RunResult
from repro.errors import ConfigurationError
from repro.models.kmeans import KMeansModel
from repro.models.linear import LinearSVM, LogisticRegression
from repro.models.nn import MLPClassifier
from repro.models.zoo import build_model, get_model_info
from repro.simulation.tracing import TimeBreakdown

MB = 1024 * 1024


def _result(history=None, breakdown=None) -> RunResult:
    config = TrainingConfig(
        model="lr", dataset="higgs", algorithm="ma_sgd", loss_threshold=0.66
    )
    b = TimeBreakdown()
    for category, seconds in (breakdown or {"startup": 2.0, "compute": 10.0}).items():
        b.add(category, seconds)
    return RunResult(
        config=config,
        converged=True,
        final_loss=0.65,
        duration_s=20.0,
        cost_total=0.1,
        cost_breakdown={"lambda": 0.1},
        epochs=5.0,
        comm_rounds=5,
        history=history or [],
        breakdown=b,
    )


class TestRunResult:
    def test_duration_without_startup(self):
        result = _result()
        assert result.startup_s == 2.0
        assert result.duration_without_startup_s == 18.0

    def test_loss_curve_sorted(self):
        history = [
            LossPoint(3.0, 1.0, 0.5, 0),
            LossPoint(1.0, 0.0, 0.7, 0),
            LossPoint(2.0, 0.5, 0.6, 1),
        ]
        curve = _result(history=history).loss_curve()
        assert [t for t, _ in curve] == [1.0, 2.0, 3.0]

    def test_time_to_loss(self):
        history = [
            LossPoint(1.0, 0.0, 0.7, 0),
            LossPoint(2.0, 1.0, 0.6, 0),
            LossPoint(3.0, 2.0, 0.5, 0),
        ]
        result = _result(history=history)
        assert result.time_to_loss(0.6) == 2.0
        assert result.time_to_loss(0.1) is None

    def test_summary_mentions_state(self):
        assert "converged" in _result().summary()


class TestTimeBreakdown:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TimeBreakdown().add("compute", -1.0)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -0.5])
    def test_non_finite_duration_rejected_and_not_recorded(self, duration):
        b = TimeBreakdown()
        with pytest.raises(ValueError, match="invalid duration"):
            b.add("compute", duration)
        assert b.seconds == {}
        b.add("compute", 0.0)
        assert b.get("compute") == 0.0

    def test_communication_aggregate(self):
        b = TimeBreakdown()
        b.add("comm", 1.0)
        b.add("wait", 2.0)
        b.add("merge", 3.0)
        assert b.communication == 6.0

    def test_max_per_category(self):
        a, b = TimeBreakdown(), TimeBreakdown()
        a.add("compute", 5.0)
        b.add("compute", 7.0)
        b.add("wait", 1.0)
        merged = TimeBreakdown.max_per_category([a, b])
        assert merged.get("compute") == 7.0
        assert merged.get("wait") == 1.0


class TestModelZoo:
    def test_lr_higgs_is_224_bytes(self):
        assert get_model_info("lr", "higgs").param_bytes == 224

    def test_mobilenet_is_12mb(self):
        assert get_model_info("mobilenet", "cifar10").param_bytes == 12 * MB

    def test_resnet_is_89mb(self):
        assert get_model_info("resnet50", "cifar10").param_bytes == 89 * MB

    def test_factories_produce_right_types(self):
        assert isinstance(build_model("lr", "higgs")[0], LogisticRegression)
        assert isinstance(build_model("svm", "rcv1")[0], LinearSVM)
        assert isinstance(build_model("kmeans", "higgs", k=5)[0], KMeansModel)
        assert isinstance(build_model("mobilenet", "cifar10")[0], MLPClassifier)

    def test_kmeans_size_scales_with_k(self):
        small = get_model_info("kmeans", "higgs", k=10)
        large = get_model_info("kmeans", "higgs", k=1000)
        assert large.param_bytes == 100 * small.param_bytes

    def test_convexity_flags(self):
        assert get_model_info("lr", "higgs").convex
        assert get_model_info("svm", "higgs").convex
        assert not get_model_info("mobilenet", "cifar10").convex
        assert not get_model_info("kmeans", "higgs").convex  # EM, not ADMM

    def test_gpu_speedups_only_for_deep_models(self):
        assert get_model_info("mobilenet", "cifar10").compute.gpu_speedup_t4 > 10
        assert get_model_info("lr", "higgs").compute.gpu_speedup_t4 == 1.0

    def test_resnet_memory_envelope(self):
        # Batch 32 fits a 3 GB function, batch 64 does not (§5.2).
        info = get_model_info("resnet50", "cifar10")
        model_footprint = 4 * info.param_bytes
        fits_32 = model_footprint + 32 * info.activation_bytes_per_instance
        fits_64 = model_footprint + 64 * info.activation_bytes_per_instance
        limit = 3 * 1024**3
        assert fits_32 < limit
        assert fits_64 > limit * 0.9  # at the wall once data is added

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            get_model_info("transformer", "higgs")

    def test_deep_models_only_on_cifar(self):
        with pytest.raises(ConfigurationError):
            get_model_info("mobilenet", "higgs")

    def test_compute_calibration_lr_higgs(self):
        # Figure 10: ~8 s/epoch for 1.1 M rows on the reference worker.
        info = get_model_info("lr", "higgs")
        epoch_seconds = 1_100_000 * info.compute.per_instance_s
        assert epoch_seconds == pytest.approx(8.0, rel=0.2)
