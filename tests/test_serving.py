"""Tests for the serving tier: traffic, registry, autoscalers, runtime,
the figV study and the ServingSession/infer facade.

The pinned regressions here are the tentpole's headline physics: seeded
traffic traces are byte-identical per seed, serving runs are pure
functions of (config, model), bursty FaaS shows a cold-start tail
(p99.9 strictly above p50) that a big-enough always-on IaaS fleet does
not, and figV artifacts are byte-identical between serial and pooled
sweeps.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.fig_serving import SERVE_MIN_REPLICAS
from repro.serving import (
    ConcurrencyScaler,
    FixedScaler,
    ModelRegistry,
    PoolState,
    QueueDepthScaler,
    ServedModel,
    ServingConfig,
    ServingRuntime,
    arrivals_for,
    make_autoscaler,
    model_load_seconds,
    request_arrivals,
    request_service_seconds,
    serving_hash,
    serving_metrics,
    traffic_trace,
)

MB = 1024 * 1024


def _digest(document) -> str:
    """sha256 of a document's canonical JSON (what the pins below hold)."""
    blob = json.dumps(document, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


#: sha256 of json.dumps(traffic_trace(config), sort_keys=True) for
#: ServingConfig(traffic=shape, rate_rps=35.0, requests=700).
PINNED_TRACE_DIGESTS = {
    "poisson": "aecba4bf133231b9b679eaa51d4eabcd915e24492cbe5759ddcbe142e60e5a53",
    "diurnal": "83973665018e185b12ee4a89345376366a16f0172865331ccff6396998c4f3ee",
    "bursty": "d305a4b5cab02ffee492d0579e319e68e9a3b710766a8026112f2177489a505d",
}


def nn_entry(**overrides) -> ServedModel:
    """A 12 MB MobileNet entry without paying for a training run."""
    kwargs = dict(
        name="nn", model="mobilenet", dataset="cifar10",
        param_bytes=12 * MB, final_loss=0.31, converged=True,
        quality="converged@0.3100", training_cost=0.2, training_s=950.0,
        source="test",
    )
    kwargs.update(overrides)
    return ServedModel(**kwargs)


class TestTraffic:
    def test_same_seed_same_trace(self):
        a = request_arrivals(7, "bursty", 20.0, 100)
        b = request_arrivals(7, "bursty", 20.0, 100)
        assert a == b  # byte-identical, not approximately equal

    def test_different_seeds_differ(self):
        assert request_arrivals(7, "poisson", 20.0, 50) != request_arrivals(
            8, "poisson", 20.0, 50
        )

    @pytest.mark.parametrize("shape", ["poisson", "diurnal", "bursty"])
    def test_strictly_increasing(self, shape):
        arrivals = request_arrivals(3, shape, 15.0, 200)
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))

    def test_poisson_mean_rate(self):
        # 2000 arrivals at 20 r/s should take ~100 s (law of large numbers).
        arrivals = request_arrivals(0, "poisson", 20.0, 2000)
        assert arrivals[-1] == pytest.approx(100.0, rel=0.15)

    def test_shapes_produce_distinct_traces(self):
        traces = {
            shape: tuple(request_arrivals(5, shape, 20.0, 50))
            for shape in ("poisson", "diurnal", "bursty")
        }
        assert len(set(traces.values())) == 3

    def test_bursty_concentrates_arrivals_in_spikes(self):
        arrivals = request_arrivals(
            1, "bursty", 10.0, 400,
            burst_every_s=10.0, burst_len_s=1.0, burst_factor=6.0,
        )
        in_spike = sum(1 for t in arrivals if (t % 10.0) < 1.0)
        # The spike holds 6/15 of the integrated rate over 1/10 of the
        # time; at factor 6 that's ~40% of arrivals in 10% of the window.
        assert in_spike / len(arrivals) > 0.25

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            request_arrivals(0, "poisson", 0.0, 10)
        with pytest.raises(ConfigurationError):
            request_arrivals(0, "poisson", 1.0, 0)
        with pytest.raises(ConfigurationError):
            request_arrivals(0, "square_wave", 1.0, 10)

    def test_arrivals_for_matches_config_knobs(self):
        config = ServingConfig(traffic="diurnal", rate_rps=12.0, requests=30)
        assert arrivals_for(config) == request_arrivals(
            config.seed, "diurnal", 12.0, 30,
            diurnal_period_s=config.diurnal_period_s,
            diurnal_amplitude=config.diurnal_amplitude,
        )

    @pytest.mark.parametrize("kwargs", [
        dict(rate_rps=float("nan")),
        dict(rate_rps=float("inf")),
        dict(diurnal_period_s=float("inf")),
        dict(diurnal_period_s=float("nan")),
        dict(diurnal_period_s=0.0),
        dict(diurnal_amplitude=1.0),  # was a ZeroDivisionError
        dict(diurnal_amplitude=float("nan")),
        dict(burst_every_s=float("inf")),
        dict(burst_len_s=float("nan")),
        dict(burst_len_s=2.0, burst_every_s=1.0),
        dict(burst_factor=float("inf")),
        dict(burst_factor=float("nan")),
        dict(traffic="square_wave"),
    ])
    @pytest.mark.parametrize("shape", ["poisson", "diurnal", "bursty"])
    def test_rejects_values_no_trace_exists_for(self, shape, kwargs):
        # At the generator's own boundary, whatever the shape: a NaN rate
        # used to bisect forever, an infinite one returned [0.0, 0.0, ...].
        params = {"traffic": shape, "rate_rps": 5.0, **kwargs}
        traffic, rate = params.pop("traffic"), params.pop("rate_rps")
        with pytest.raises(ConfigurationError):
            request_arrivals(0, traffic, rate, 3, **params)

    def test_burst_windows_below_float_resolution_do_not_hang(self):
        with pytest.raises(ConfigurationError, match="float resolution"):
            request_arrivals(
                1, "bursty", 20.0, 50, burst_every_s=1e-20, burst_len_s=1e-20
            )

    def test_trace_json_bytes_are_pinned(self):
        # Pinned on the commit before the hoisted constant in
        # `_diurnal_advance`: the trace document is byte-identical.
        for shape, pinned in PINNED_TRACE_DIGESTS.items():
            config = ServingConfig(traffic=shape, rate_rps=35.0, requests=700)
            assert _digest(traffic_trace(config)) == pinned, shape


class TestServingConfig:
    def test_defaults_are_valid(self):
        config = ServingConfig()
        assert config.platform == "faas"
        assert config.train_kwargs()["model"] == "mobilenet"

    def test_nn_models_get_minibatch_recipe(self):
        kwargs = ServingConfig().train_kwargs()
        assert kwargs["algorithm"] == "ga_sgd"
        assert kwargs["batch_size"] == 32
        # Non-NN models keep the TrainingConfig defaults.
        assert "algorithm" not in ServingConfig(
            model="lr", dataset="higgs"
        ).train_kwargs()

    @pytest.mark.parametrize("kwargs", [
        dict(platform="mainframe"),
        dict(traffic="square_wave"),
        dict(autoscaler="psychic"),
        dict(rate_rps=0.0),
        dict(requests=0),
        dict(diurnal_amplitude=1.0),
        dict(burst_len_s=20.0, burst_every_s=10.0),
        dict(burst_factor=0.5),
        dict(min_replicas=5, max_replicas=2),
        dict(min_replicas=0),
        dict(target_concurrency=0.0),
        dict(queue_threshold=0),
        dict(idle_expiry_s=0.0),
        dict(memory_gb=4.0),
        dict(cold_jitter=-0.1),
        dict(cold_jitter=math.nan),
        dict(cold_jitter=math.inf),
        dict(scale_up_cooldown_s=math.nan),
        dict(scale_down_cooldown_s=math.nan),
        dict(scale_up_cooldown_s=math.inf),
        dict(target_concurrency=math.nan),
        dict(target_concurrency=math.inf),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServingConfig(**kwargs)

    @pytest.mark.parametrize("field", ["instance", "gpu_instance"])
    def test_unknown_instance_rejected_at_construction(self, field):
        # An unknown instance used to train the model and simulate all the
        # traffic, failing only at billing.
        with pytest.raises(ConfigurationError, match=f"unknown {field} 'bogus'"):
            ServingConfig(platform="iaas", **{field: "bogus"})

    @pytest.mark.parametrize("field", [
        "rate_rps", "diurnal_period_s", "burst_every_s", "burst_len_s",
        "burst_factor", "idle_expiry_s", "request_overhead_s",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, field, value):
        # `nan <= 0` is false, so a NaN walked past every range check.
        with pytest.raises(ConfigurationError):
            ServingConfig(**{field: value})

    def test_traffic_errors_name_the_cli_flag(self):
        # One validator behind the config and the generator, worded like
        # the rest of ServingConfig's checks.
        with pytest.raises(ConfigurationError, match="--rate-rps must be > 0"):
            ServingConfig(rate_rps=float("nan"))
        with pytest.raises(ConfigurationError, match="--requests must be >= 1"):
            request_arrivals(0, "poisson", 1.0, 0)
        # An unknown shape is reported before an unknown autoscaler, as before.
        with pytest.raises(ConfigurationError, match="unknown traffic shape"):
            ServingConfig(traffic="square_wave", autoscaler="psychic")

    def test_hash_is_stable_and_sensitive(self):
        a, b = ServingConfig(), ServingConfig()
        assert serving_hash(a) == serving_hash(b)
        assert serving_hash(a) != serving_hash(ServingConfig(traffic="bursty"))


class TestRegistry:
    def test_load_seconds_from_size(self):
        # 12 MB over the 65 MB/s S3 envelope plus the 80 ms request.
        assert model_load_seconds(12 * MB) == pytest.approx(
            0.08 + 12 * MB / (65 * MB), rel=1e-12
        )
        with pytest.raises(ConfigurationError):
            model_load_seconds(-1)

    def test_register_artifact_maps_fields(self):
        registry = ModelRegistry()
        entry = registry.register_artifact("m", {
            "config": {"model": "mobilenet", "dataset": "cifar10"},
            "result": {"final_loss": 0.25, "converged": True,
                       "cost_total": 0.5, "duration_s": 100.0},
            "config_hash": "abc123",
        })
        assert entry.param_bytes == 12 * MB
        assert entry.quality == "converged@0.2500"
        assert entry.training_cost == 0.5
        assert entry.source == "abc123"
        assert registry.get("m") is entry

    def test_duplicate_and_unknown_names_rejected(self):
        registry = ModelRegistry()
        registry.register(nn_entry())
        with pytest.raises(ConfigurationError):
            registry.register(nn_entry())
        with pytest.raises(ConfigurationError):
            registry.get("nope")

    def test_draft_quality_tag(self):
        registry = ModelRegistry()
        entry = registry.register_artifact("m", {
            "config": {"model": "lr", "dataset": "higgs"},
            "result": {"final_loss": 0.96, "converged": False,
                       "cost_total": 0.01, "duration_s": 50.0},
            "config_hash": "h",
        })
        assert entry.quality == "draft@0.9600"


class TestAutoscalers:
    def test_fixed_ignores_demand(self):
        scaler = FixedScaler(3, 16)
        assert scaler.desired(PoolState(100, 50, 3, 0), now=0.0) == 3

    def test_concurrency_tracks_demand(self):
        scaler = ConcurrencyScaler(1, 16, target_concurrency=2.0)
        assert scaler.desired(PoolState(0, 0, 1, 1), 0.0) == 1  # clamped up
        assert scaler.desired(PoolState(3, 4, 2, 0), 0.0) == 4  # ceil(7/2)
        assert scaler.desired(PoolState(100, 0, 1, 0), 0.0) == 16  # clamped

    def test_queue_depth_hysteresis(self):
        scaler = QueueDepthScaler(
            1, 16, queue_threshold=4, up_cooldown_s=2.0, down_cooldown_s=30.0
        )
        backlog = PoolState(queued=5, in_flight=2, live=2, idle=0)
        assert scaler.desired(backlog, 0.0) == 2  # stepped 1 -> 2
        assert scaler.desired(backlog, 1.0) == 2  # up-cooldown holds
        assert scaler.desired(backlog, 2.5) == 3  # cooldown elapsed
        drained = PoolState(queued=0, in_flight=0, live=3, idle=3)
        assert scaler.desired(drained, 3.0) == 3  # down-cooldown holds
        assert scaler.desired(drained, 40.0) == 2  # elapsed: step down
        assert scaler.desired(drained, 41.0) == 2  # down-cooldown again

    def test_make_autoscaler_dispatch(self):
        for name, cls in [("fixed", FixedScaler),
                          ("concurrency", ConcurrencyScaler),
                          ("queue_depth", QueueDepthScaler)]:
            assert isinstance(
                make_autoscaler(ServingConfig(autoscaler=name)), cls
            )


class TestServingRuntime:
    def test_run_is_deterministic(self):
        config = ServingConfig(traffic="bursty", requests=120)
        entry = nn_entry()
        r1, p1 = ServingRuntime(config, entry).run()
        r2, p2 = ServingRuntime(config, entry).run()
        assert json.dumps([r1, p1], sort_keys=True) == json.dumps(
            [r2, p2], sort_keys=True
        )

    def test_gpu_serves_faster_than_cpu(self):
        entry = nn_entry()
        faas = request_service_seconds(ServingConfig(), entry)
        gpu = request_service_seconds(
            ServingConfig(platform="gpu_iaas"), entry
        )
        assert gpu < faas / 5  # the calibrated 27x T4 ratio dominates

    def test_every_request_served_in_order(self):
        config = ServingConfig(requests=80)
        records, pool = ServingRuntime(config, nn_entry()).run()
        assert [r["request"] for r in records] == list(range(80))
        assert all(r["latency_s"] >= pool["serve_s"] for r in records)

    def test_cold_start_tail_on_bursty_faas(self):
        """The tentpole's pinned regression: p99.9 strictly above p50."""
        config = ServingConfig(
            platform="faas", traffic="bursty", autoscaler="concurrency",
            requests=300,
        )
        records, pool = ServingRuntime(config, nn_entry()).run()
        metrics = serving_metrics(records, pool)
        assert metrics["p999_latency_s"] > metrics["p50_latency_s"]
        assert metrics["cold_start_fraction"] > 0.0

    def test_no_cold_tail_on_always_on_iaas(self):
        """A pre-booted fleet big enough for the bursts has no tail."""
        config = ServingConfig(
            platform="iaas", traffic="bursty", autoscaler="fixed",
            min_replicas=8, requests=300,
        )
        records, pool = ServingRuntime(config, nn_entry()).run()
        metrics = serving_metrics(records, pool)
        assert metrics["cold_starts"] == 0
        assert metrics["cold_start_fraction"] == 0.0
        assert metrics["p999_latency_s"] == metrics["p50_latency_s"]

    def test_faas_idle_expiry_recreates_cold_starts(self):
        # Arrivals ~20 s apart with a 5 s keep-warm window: every
        # request after the first finds its container expired.
        sparse = ServingConfig(
            platform="faas", rate_rps=0.05, requests=4, idle_expiry_s=5.0,
            autoscaler="fixed",
        )
        _, pool = ServingRuntime(sparse, nn_entry()).run()
        assert pool["cold_starts"] >= 3
        # The same trace under a generous window stays warm throughout.
        warm = ServingConfig(
            platform="faas", rate_rps=0.05, requests=4, idle_expiry_s=600.0,
            autoscaler="fixed",
        )
        _, pool = ServingRuntime(warm, nn_entry()).run()
        assert pool["cold_starts"] == 1

    def test_iaas_bills_alive_time_not_usage(self):
        config = ServingConfig(
            platform="iaas", autoscaler="fixed", min_replicas=2, requests=50
        )
        records, pool = ServingRuntime(config, nn_entry()).run()
        assert pool["cost_breakdown"].keys() == {"ec2", "s3"} - {"s3"} or \
            set(pool["cost_breakdown"]) <= {"ec2", "s3"}
        # Two always-on VMs for the whole makespan, at c5.xlarge rates.
        expected = 2 * pool["makespan_s"] / 3600.0 * 0.17
        assert pool["cost_breakdown"]["ec2"] == pytest.approx(expected)

    def test_metrics_reject_empty_records(self):
        with pytest.raises(SimulationError):
            serving_metrics([], {"cold_starts": 0})


@pytest.fixture(scope="module")
def small_pipeline_root(tmp_path_factory) -> Path:
    """One tiny trained lr/higgs pipeline, shared across facade tests."""
    return tmp_path_factory.mktemp("serving_root")


def small_config(**overrides) -> ServingConfig:
    kwargs = dict(
        model="lr", dataset="higgs", data_scale=2000, requests=60,
        traffic="bursty", platform="faas", autoscaler="concurrency",
    )
    kwargs.update(overrides)
    return ServingConfig(**kwargs)


class TestServingSession:
    def test_rooted_run_resumes_byte_identical(self, small_pipeline_root):
        from repro.api import ServingSession

        config = small_config()
        first = ServingSession(small_pipeline_root, config=config).run()
        assert first.ran_requests == config.requests
        assert first.path is not None and first.path.exists()
        again = ServingSession(small_pipeline_root, config=config).run()
        assert again.ran_requests == 0  # resumed, nothing re-simulated
        assert json.dumps(first.data, sort_keys=True) == json.dumps(
            again.data, sort_keys=True
        )

    def test_in_memory_matches_rooted(self, small_pipeline_root):
        from repro.api import ServingSession

        config = small_config()
        rooted = ServingSession(small_pipeline_root, config=config).run()
        in_memory = ServingSession(None, config=config).run()
        assert json.dumps(in_memory.data, sort_keys=True) == json.dumps(
            rooted.data, sort_keys=True
        )

    def test_report_mentions_end_to_end_dollars(self, small_pipeline_root):
        from repro.api import ServingSession

        outcome = ServingSession(
            small_pipeline_root, config=small_config()
        ).run()
        assert "end-to-end" in outcome.report()
        assert outcome.end_to_end_dollars > 0

    @pytest.mark.parametrize("damage", ["misfiled_hash", "truncated"])
    def test_corrupt_report_repaired(self, tmp_path, damage):
        # One trust policy (repro.store): an unusable report under the
        # expected key is announced, re-simulated and overwritten.
        from repro.api import ServingSession

        config = small_config(requests=30)
        fresh = ServingSession(tmp_path, config=config).run()
        pristine = fresh.path.read_bytes()
        if damage == "truncated":
            fresh.path.write_bytes(pristine[:64])
        else:
            fresh.path.write_text(
                json.dumps(dict(fresh.data, serving_hash="0" * 16))
            )
        messages = []
        healed = ServingSession(
            tmp_path, config=config, progress=messages.append
        ).run()
        assert healed.ran_requests == config.requests
        assert healed.path.read_bytes() == pristine
        (notice,) = [m for m in messages if "corrupt serving report" in m]
        assert fresh.path.name in notice
        assert ("partial" if damage == "truncated" else "filed under") in notice


class TestInferCli:
    def test_infer_smoke_and_resume(self, capsys, small_pipeline_root):
        from repro.cli import main

        argv = [
            "infer", "--model", "lr", "--dataset", "higgs",
            "--data-scale", "2000", "--requests", "60",
            "--traffic", "bursty", "--platform", "faas",
            "--autoscaler", "concurrency",
            "--out", str(small_pipeline_root),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "end-to-end" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "report resumed, 0 request(s) re-simulated" in second

    def test_infer_json_output(self, capsys, small_pipeline_root):
        from repro.cli import main

        assert main([
            "infer", "--model", "lr", "--dataset", "higgs",
            "--data-scale", "2000", "--requests", "60",
            "--traffic", "bursty", "--platform", "faas",
            "--autoscaler", "concurrency",
            "--out", str(small_pipeline_root), "--json",
        ]) == 0
        out = capsys.readouterr().out
        document = json.loads(out[: out.rindex("}") + 1])
        assert document["kind"] == "serving_report"
        assert document["metrics"]["requests"] == 60


class TestFigVStudy:
    def test_registered_and_listed(self):
        from repro.api import study_names

        assert "figV" in study_names()

    def test_aggregate_is_pure(self):
        """serve_pipeline over fixed artifacts is fully deterministic."""
        from repro.experiments.fig_serving import serve_pipeline

        artifacts = [
            {
                "tags": {"class": "nn"},
                "config": {"model": "mobilenet", "dataset": "cifar10",
                           "seed": 42},
                "result": {"final_loss": 0.3, "converged": True,
                           "cost_total": 0.2, "duration_s": 950.0},
                "config_hash": "nnhash",
            },
            {
                "tags": {"class": "small"},
                "config": {"model": "lr", "dataset": "higgs", "seed": 42},
                "result": {"final_loss": 0.95, "converged": False,
                           "cost_total": 0.01, "duration_s": 50.0},
                "config_hash": "smallhash",
            },
        ]
        r1 = serve_pipeline(artifacts)
        r2 = serve_pipeline(artifacts)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert len(r1["panel"]) == 28  # 3 platforms x 3 traffic x 3 scalers + 1
        cold_free = [c for c in r1["panel"]
                     if c["platform"] != "faas" and c["autoscaler"] == "fixed"]
        assert all(c["cold_start_fraction"] == 0.0 for c in cold_free)
        for c in r1["panel"]:
            assert c["platform"] in {"faas", "iaas", "gpu_iaas"}
            assert c["p50_latency_s"] <= c["p99_latency_s"] <= c["p999_latency_s"]
            assert 0.0 <= c["cold_start_fraction"] <= 1.0
            assert 0.0 <= c["utilization"] <= 1.0
            # Simulated requests are never free.
            assert c["cost_per_1m_requests"] > 0 and c["end_to_end_dollars"] > 0

    def test_serial_vs_pooled_artifacts_byte_identical(self, tmp_path):
        """The acceptance criterion: --jobs must not change any byte."""
        from repro.experiments.fig_serving import sweep_points
        from repro.sweep.orchestrator import run_sweep

        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        for out, jobs in ((serial, 1), (pooled, 2)):
            run_sweep(
                sweep_points(max_epochs=0.2), out_dir=out, jobs=jobs,
                traces_dir=tmp_path / f"traces{jobs}",
            )
        serial_files = sorted(p.name for p in serial.glob("*.json"))
        pooled_files = sorted(p.name for p in pooled.glob("*.json"))
        assert serial_files == pooled_files and serial_files
        for name in serial_files:
            # Everything outside `meta` (which records host wall-clock)
            # must match byte for byte — same convention as test_sweep.
            a = json.loads((serial / name).read_text())
            b = json.loads((pooled / name).read_text())
            a.pop("meta"), b.pop("meta")
            assert json.dumps(a, sort_keys=True) == json.dumps(
                b, sort_keys=True
            ), name

    def test_format_report_headline(self):
        from repro.experiments.fig_serving import format_report, serve_pipeline

        artifacts = [
            {
                "tags": {"class": "nn"},
                "config": {"model": "mobilenet", "dataset": "cifar10",
                           "seed": 42},
                "result": {"final_loss": 0.3, "converged": True,
                           "cost_total": 0.2, "duration_s": 950.0},
                "config_hash": "nnhash",
            },
            {
                "tags": {"class": "small"},
                "config": {"model": "lr", "dataset": "higgs", "seed": 42},
                "result": {"final_loss": 0.95, "converged": False,
                           "cost_total": 0.01, "duration_s": 50.0},
                "config_hash": "smallhash",
            },
        ]
        result = serve_pipeline(artifacts)
        text = format_report(result)
        assert "bursty tail" in text
        assert "end-to-end" in text
        # The finding behind that line: bursty traffic on FaaS shows a
        # cold-start tail the always-on fleet does not have.
        cells = {
            (c["platform"], c["autoscaler"]): c for c in result["panel"]
            if c["model"] == "nn" and c["traffic"] == "bursty"
        }
        faas, iaas = cells[("faas", "concurrency")], cells[("iaas", "fixed")]
        assert faas["p999_latency_s"] > iaas["p999_latency_s"]
        assert faas["cold_start_fraction"] > 0.0 == iaas["cold_start_fraction"]


# ---------------------------------------------------------------------------
# Pool accounting: the maintained counters / idle index against the scans
# ---------------------------------------------------------------------------
def _idle_key(replica):
    return (replica.idle_since, replica.id)


class ScanOracle:
    """The pool queries as whole-pool scans — the pre-index logic, kept
    only here as the reference the maintained state is held against."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime

    def live(self):
        return [r for r in self.runtime._replicas if r.state != "retired"]

    def idle(self):
        return [r for r in self.runtime._replicas if r.state == "idle"]

    def state(self) -> PoolState:
        live = self.live()
        return PoolState(
            queued=len(self.runtime._queue),
            in_flight=sum(1 for r in live if r.state == "busy"),
            live=len(live),
            idle=sum(1 for r in live if r.state == "idle"),
        )

    def next_replica(self):
        return max(self.idle(), key=_idle_key)

    def victims(self, desired: int):
        live = self.live()
        if self.runtime.platform.kind != "iaas" or len(live) <= desired:
            return []
        return sorted(self.idle(), key=_idle_key)[: len(live) - desired]


class CheckedRuntime(ServingRuntime):
    """A ServingRuntime that checks itself against :class:`ScanOracle` in
    every ``_pump`` (the replica each request goes to, FIFO order) and
    around every ``_reconcile``, with which each pump ends (the state the
    policy is shown, the scale-down victims, the peak, and afterwards the
    counters and the index order)."""

    def __init__(self, config, entry) -> None:
        super().__init__(config, entry)
        self.oracle = ScanOracle(self)
        self.pool_checks = 0
        self.assignments = 0
        self.scale_downs = 0
        self.widest_tie = 0  # replicas idle since the same instant > 0
        self._oracle_peak = 0
        self._expected_victims: list = []
        self._victims: list | None = None
        policy = self._autoscaler.desired

        def desired(state, now):
            assert state == self.oracle.state()
            want = policy(state, now)
            self._expected_victims = self.oracle.victims(want)
            return want

        self._autoscaler.desired = desired

    def _check_pool(self) -> None:
        self.pool_checks += 1
        assert self._state() == self.oracle.state()
        assert [e[:2] for e in self._idle_index] == sorted(
            map(_idle_key, self.oracle.idle())
        )
        assert all(e[2] is self._replicas[e[1]] for e in self._idle_index)
        ties = Counter(e[0] for e in self._idle_index if e[0] > 0)
        self.widest_tie = max(self.widest_tie, *ties.values(), 0)

    def _transition(self, replica, state) -> None:
        if state == "retired" and self._victims is not None:
            self._victims.append(replica)
        super()._transition(replica, state)

    def _assign(self, replica, request) -> None:
        assert replica is self.oracle.next_replica()
        assert request.index == self.assignments  # FIFO
        self.assignments += 1
        super()._assign(replica, request)

    def _reconcile(self) -> None:
        self._victims = []
        super()._reconcile()
        assert self._victims == self._expected_victims
        self.scale_downs += len(self._victims)
        self._victims = None
        self._oracle_peak = max(self._oracle_peak, len(self.oracle.live()))
        assert self._peak_live == self._oracle_peak
        self._check_pool()


ADVERSARIAL_CELLS = {
    # Keep-warm leases of 2 s under a rate swinging 20 <-> 3980 r/s: the
    # pool fills to its cap, most of it expires in the trough and is
    # provisioned again on the next crest.
    "faas_churn": dict(
        platform="faas", traffic="diurnal", autoscaler="concurrency",
        idle_expiry_s=2.0, max_replicas=256, rate_rps=2000.0, requests=12000,
        diurnal_period_s=5.0, diurnal_amplitude=0.99, target_concurrency=1.0,
    ),
    # Short cooldowns and slow requests: the queue-depth policy steps up
    # in every burst and back down after it, so the IaaS scale-down
    # branch retires replicas throughout the run.
    "iaas_scale_down": dict(
        platform="iaas", traffic="bursty", autoscaler="queue_depth",
        scale_up_cooldown_s=0.5, scale_down_cooldown_s=3.0, min_replicas=1,
        max_replicas=16, rate_rps=6.0, requests=2000, burst_every_s=20.0,
        burst_len_s=4.0, request_overhead_s=0.2,
    ),
    # Eight jitter-free cold starts come up at one instant over a
    # backlog and then complete in lockstep: `idle_since` ties, broken
    # by id, once the queue drains.
    "same_instant": dict(
        platform="faas", traffic="poisson", autoscaler="fixed", min_replicas=8,
        max_replicas=8, rate_rps=200.0, requests=1200, cold_jitter=0.0,
    ),
}

#: sha256 of json.dumps([records, pool], sort_keys=True), computed on the
#: commit before the pool index existed (whole-pool scans).
PINNED_DIGESTS = {
    "faas_churn": "50f966d89687cf5594c9c051d0a3aff60a3487f77581da12a81e2ae2eec2b720",
    "iaas_scale_down": "7d3bd36cca0d3a135cce01dd1ad2307b456c396de8277819a8d6ecfb21035856",
    "same_instant": "bb397c256bccac4e0dc5c3de9d4646ba52d2ae63a59b21e6b46ca7b808aa1ffd",
    "panel_iaas_bursty_concurrency": "b9f472c93cd4cf6bd70ed5a0516d5f1e05b313dae89e9f8e734f729e848057fb",
}


def panel_config(platform, traffic, autoscaler, seed) -> ServingConfig:
    return ServingConfig(
        platform=platform, traffic=traffic, autoscaler=autoscaler, seed=seed,
        requests=1000, rate_rps=20.0, max_replicas=16,
        min_replicas=SERVE_MIN_REPLICAS[platform],
    )


def pinned_config(name: str) -> ServingConfig:
    if name in ADVERSARIAL_CELLS:
        return ServingConfig(**ADVERSARIAL_CELLS[name])
    return panel_config("iaas", "bursty", "concurrency", seed=7)


class TestPoolIndex:
    @pytest.mark.parametrize("seed", [7, 20210620])
    @pytest.mark.parametrize("autoscaler", ["fixed", "concurrency", "queue_depth"])
    @pytest.mark.parametrize("traffic", ["poisson", "diurnal", "bursty"])
    @pytest.mark.parametrize("platform", ["faas", "iaas", "gpu_iaas"])
    def test_panel_matches_scan_oracle(self, platform, traffic, autoscaler, seed):
        config = panel_config(platform, traffic, autoscaler, seed)
        runtime = CheckedRuntime(config, nn_entry())
        records, _ = runtime.run()
        assert runtime.assignments == len(records) == config.requests
        assert runtime.pool_checks > 2 * config.requests  # arrival + completion

    def test_churning_faas_pool(self):
        runtime = CheckedRuntime(pinned_config("faas_churn"), nn_entry())
        records, pool = runtime.run()
        retired = sum(1 for r in runtime._replicas if r.state == "retired")
        # The premise: the cap was hit, replicas expired, and expired
        # capacity was provisioned again.
        assert pool["peak_replicas"] == 256
        assert pool["replicas_provisioned"] > 256 and retired > 100
        assert _digest([records, pool]) == PINNED_DIGESTS["faas_churn"]

    def test_iaas_scale_down_retires_longest_idle(self):
        runtime = CheckedRuntime(pinned_config("iaas_scale_down"), nn_entry())
        records, pool = runtime.run()
        assert runtime.scale_downs > 20  # the branch really ran
        assert pool["replicas_provisioned"] > 16
        assert _digest([records, pool]) == PINNED_DIGESTS["iaas_scale_down"]

    def test_same_instant_completions_tie_on_idle_since(self):
        runtime = CheckedRuntime(pinned_config("same_instant"), nn_entry())
        records, pool = runtime.run()
        completions = [r["completion_s"] for r in records]
        assert len(completions) - len(set(completions)) > 100
        assert runtime.widest_tie >= 2  # ties reached the idle index
        assert _digest([records, pool]) == PINNED_DIGESTS["same_instant"]

    def test_transition_keeps_index_sorted_whatever_the_order(self):
        # No run idles a higher id before a lower one at one instant, so
        # drive the transition method directly: the index is ordered by
        # (idle_since, id), not by arrival.
        runtime = ServingRuntime(
            ServingConfig(platform="iaas", autoscaler="fixed", min_replicas=4),
            nn_entry(),
        )
        for _ in range(4):
            runtime._provision(cold=False)
        replicas = runtime._replicas
        for state in ("busy", "idle"):
            for replica in reversed(replicas):
                runtime._transition(replica, state)
        assert [e[2] for e in runtime._idle_index] == replicas
        assert runtime._state() == PoolState(queued=0, in_flight=0, live=4, idle=4)
        runtime._transition(replicas[1], "retired")
        runtime._transition(replicas[3], "busy")
        assert [e[1] for e in runtime._idle_index] == [0, 2]
        assert runtime._state() == PoolState(queued=0, in_flight=1, live=3, idle=2)

    def test_pinned_panel_cell(self):
        records, pool = ServingRuntime(
            pinned_config("panel_iaas_bursty_concurrency"), nn_entry()
        ).run()
        assert _digest([records, pool]) == PINNED_DIGESTS[
            "panel_iaas_bursty_concurrency"
        ]

    def test_pool_is_never_rescanned(self):
        """The complexity guard reads no clock: it counts whole-pool walks."""

        class CountingList(list):
            walks = 0

            def __iter__(self):
                self.walks += 1
                return super().__iter__()

        outputs = []
        for fleet in (8, 512):
            runtime = ServingRuntime(
                ServingConfig(
                    platform="iaas", autoscaler="fixed", min_replicas=fleet,
                    max_replicas=fleet, rate_rps=2000.0, requests=5000,
                ),
                nn_entry(),
            )
            runtime._replicas = CountingList()
            records, pool = runtime.run()
            assert len(runtime._replicas) == fleet
            assert runtime._replicas.walks == 1  # the `_settle` pass
            outputs.append([r["arrival_s"] for r in records])
        assert outputs[0] == outputs[1]  # the same 5,000 requests
        # The scans cannot come back under their old names.
        for name in ("_live", "_idle"):
            assert not hasattr(runtime, name)
