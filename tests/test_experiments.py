"""Integration tests for the experiment modules (scaled-down settings).

These exercise the same code paths as the benchmark harness but with
small worker counts / epoch caps so the whole file runs in seconds.
The *shape* assertions here are the reproduction's acceptance criteria.
"""

from __future__ import annotations

import pytest

from repro.experiments import cost_sanity, fig10_breakdown, table2_hybrid_rpc
from repro.experiments import table3_patterns, table6_constants
from repro.experiments.fig7_algorithms import _scaling
from repro.experiments.report import format_table, ratio
from repro.experiments.workloads import WORKLOADS, get_workload, scaled
from repro.sweep.orchestrator import run_sweep
from repro.sweep.study import get_study, pivot, rows


class TestWorkloadRegistry:
    def test_all_known_workloads_resolve(self):
        for key in WORKLOADS:
            model, dataset = key.split("/")
            assert get_workload(model, dataset).key == key

    def test_unknown_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            get_workload("bert", "wikipedia")

    def test_scaled_override(self):
        w = scaled(get_workload("lr", "higgs"), workers=3)
        assert w.workers == 3
        assert get_workload("lr", "higgs").workers == 10

    def test_deep_models_use_per_worker_batches(self):
        assert get_workload("mobilenet", "cifar10").batch_scope == "per_worker"
        assert get_workload("resnet50", "cifar10").batch_scope == "per_worker"


class TestTable2:
    def test_rows_cover_all_configs(self):
        rows = table2_hybrid_rpc.run()
        assert len(rows) == 8

    def test_thrift_transfer_slower_than_grpc(self):
        for row in table2_hybrid_rpc.run():
            assert row["thrift_transfer_s"] > row["grpc_transfer_s"]

    def test_ten_lambdas_slower_than_one(self):
        rows = {(r["n_lambdas"], r["lambda_memory_gb"], r["ps_instance"]): r
                for r in table2_hybrid_rpc.run()}
        one = rows[(1, 3.0, "c5.4xlarge")]
        ten = rows[(10, 3.0, "c5.4xlarge")]
        assert ten["grpc_transfer_s"] > one["grpc_transfer_s"]
        assert ten["grpc_update_s"] > one["grpc_update_s"]

    def test_paper_magnitudes(self):
        rows = {(r["n_lambdas"], r["lambda_memory_gb"], r["ps_instance"]): r
                for r in table2_hybrid_rpc.run()}
        # 1x Lambda-3GB -> c5.4xlarge: paper measures 1.85 s.
        assert rows[(1, 3.0, "c5.4xlarge")]["grpc_transfer_s"] == pytest.approx(1.85, rel=0.2)
        # 1x Lambda-3GB -> t2.2xlarge: paper measures 2.62 s.
        assert rows[(1, 3.0, "t2.2xlarge")]["grpc_transfer_s"] == pytest.approx(2.62, rel=0.2)

    def test_report_renders(self):
        text = get_study("table2").format_report(table2_hybrid_rpc.run())
        assert "Table 2" in text


class TestTable3:
    def test_scatter_reduce_wins_on_resnet(self):
        rows = {r["label"]: r for r in table3_patterns.run()}
        rn = rows["ResNet,Cifar10,W=10"]
        assert rn["allreduce_s"] / rn["scatter_reduce_s"] > 1.5

    def test_allreduce_fine_for_lr(self):
        rows = {r["label"]: r for r in table3_patterns.run()}
        lr = rows["LR,Higgs,W=50"]
        assert lr["scatter_reduce_s"] >= lr["allreduce_s"] * 0.8

    def test_model_sizes_match_table(self):
        rows = {r["label"]: r for r in table3_patterns.run()}
        assert rows["LR,Higgs,W=50"]["model_bytes"] == 224
        assert rows["MobileNet,Cifar10,W=10"]["model_bytes"] == 12 * 1024 * 1024
        assert rows["ResNet,Cifar10,W=10"]["model_bytes"] == 89 * 1024 * 1024


class TestTable6:
    def test_measured_constants_match_paper(self):
        for row in table6_constants.run():
            assert row["measured_value"] == pytest.approx(row["paper_value"], rel=0.25), row


class TestFig10:
    def test_breakdown_shape(self):
        points = fig10_breakdown.sweep_points(max_epochs=3.0, workers=4)
        by_system = {r["system"]: r for r in rows(run_sweep(points).artifacts)}
        lambdaml, pytorch, angel = (by_system[s] for s in ("lambdaml", "pytorch", "angel"))
        assert lambdaml["startup_s"] < 5
        assert pytorch["startup_s"] > 100
        assert angel["startup_s"] > pytorch["startup_s"]
        assert angel["load_s"] > pytorch["load_s"] * 2
        assert angel["compute_s"] > pytorch["compute_s"]
        # LambdaML wins end-to-end but not without startup.
        assert lambdaml["duration_s"] < pytorch["duration_s"]
        assert (
            fig10_breakdown._without_startup(lambdaml)
            >= fig10_breakdown._without_startup(pytorch) * 0.8
        )


class TestCostSanity:
    @pytest.mark.slow
    def test_distributed_beats_single_machine(self):
        points = cost_sanity.case_points("lr", "higgs", workers=10, max_epochs=20)
        (roles,) = pivot(rows(run_sweep(points).artifacts), "case", "role").values()
        assert cost_sanity.speedup(roles, "faas") > 2.0
        assert cost_sanity.speedup(roles, "iaas") > 1.0


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bb"], [[1, 2.5], [None, True]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "N/A" in text
        assert "yes" in text

    def test_ratio_handles_none_and_zero(self):
        assert ratio(None, 2.0) is None
        assert ratio(1.0, None) is None
        assert ratio(1.0, 0) is None
        assert ratio(4.0, 2.0) == 2.0


class TestFig7Scaling:
    """A run that ends worse than it started has not scaled."""

    @staticmethod
    def _rows(admm_300_loss: float) -> list[dict]:
        cells = {("admm", 10): (90.0, 0.43), ("admm", 300): (60.0, admm_300_loss),
                 ("ga_sgd", 10): (40.0, 0.5), ("ga_sgd", 300): (200.0, 0.5)}
        return [
            dict(workload="svm/higgs", algorithm=algorithm, workers=workers,
                 duration_s=duration, final_loss=loss,
                 loss_curve=[(10.0, 0.5)] * workers + [(duration, loss)])
            for (algorithm, workers), (duration, loss) in cells.items()
        ]

    @pytest.mark.parametrize("loss", [float("nan"), float("inf"), 6.26e160, 0.5000001])
    def test_a_diverged_run_is_named(self, loss):
        complaint = _scaling(self._rows(loss), "svm/higgs", lambda admm, ga: admm > ga)
        assert complaint is not None and "diverged: admm@300" in complaint
        assert "ga_sgd@" not in complaint

    def test_a_run_at_its_baseline_or_below_scales(self):
        for loss in (0.5, 0.42):
            assert _scaling(self._rows(loss), "svm/higgs", lambda a, g: a > g) is None
