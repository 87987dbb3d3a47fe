"""Tests for the Q3 multi-tenancy extension experiment."""

from __future__ import annotations

import pytest

from repro.analytics.model import WorkloadParams
from repro.experiments.multitenancy import ArrivalPattern, HORIZON_S, run
from repro.sweep.study import get_study

MB = 1024 * 1024


def _params() -> WorkloadParams:
    return WorkloadParams(
        dataset_bytes=8 * 1024 * MB,
        model_bytes=224,
        epochs_faas=20.0,
        epochs_iaas=20.0,
        compute_faas_s=80.0,
        compute_iaas_s=80.0,
        rounds_per_epoch=0.1,
    )


class TestArrivals:
    def test_burst_structure(self):
        pattern = ArrivalPattern(burst_jobs=4, burst_interval_s=6 * 3600.0)
        arrivals = pattern.arrivals()
        assert len(arrivals) == 4 * 4  # four bursts in 24h
        assert arrivals[0] == arrivals[3] == 0.0
        assert max(arrivals) < HORIZON_S


class TestOutcomes:
    def test_all_platforms_present(self):
        outcomes = {o["platform"]: o for o in run(_params())}
        assert set(outcomes) == {"faas", "iaas-reserved", "iaas-ondemand"}

    def test_faas_latency_beats_ondemand_vms(self):
        outcomes = {o["platform"]: o for o in run(_params())}
        # On-demand VMs pay t_I(w) per job; FaaS pays ~1 s.
        assert outcomes["faas"]["mean_latency_s"] < outcomes["iaas-ondemand"]["mean_latency_s"]

    def test_reserved_cluster_queues_bursts(self):
        light = {o["platform"]: o for o in run(_params(), pattern=ArrivalPattern(1, 6 * 3600))}
        heavy = {o["platform"]: o for o in run(_params(), pattern=ArrivalPattern(16, 6 * 3600))}
        assert (
            heavy["iaas-reserved"]["mean_latency_s"]
            > light["iaas-reserved"]["mean_latency_s"]
        )

    def test_faas_cost_scales_with_jobs_reserved_does_not(self):
        light = {o["platform"]: o for o in run(_params(), pattern=ArrivalPattern(2, 6 * 3600))}
        heavy = {o["platform"]: o for o in run(_params(), pattern=ArrivalPattern(8, 6 * 3600))}
        assert heavy["faas"]["total_cost"] == pytest.approx(
            4 * light["faas"]["total_cost"], rel=0.01
        )
        assert heavy["iaas-reserved"]["total_cost"] == pytest.approx(
            light["iaas-reserved"]["total_cost"], rel=0.05
        )

    def test_faas_cheaper_than_reserved_for_sparse_peaky_load(self):
        """The Q3 hypothesis: on-demand FaaS wins peaky multi-tenancy."""
        outcomes = {o["platform"]: o for o in run(_params(), pattern=ArrivalPattern(4, 8 * 3600))}
        assert outcomes["faas"]["total_cost"] < outcomes["iaas-reserved"]["total_cost"]

    def test_report_renders(self):
        text = get_study("multitenancy_analytical").format_report(run(_params()))
        assert "Q3" in text and "faas" in text
