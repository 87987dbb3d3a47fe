"""The multi-tenant training service (ISSUE 7).

Acceptance bar: seeded Poisson/trace arrivals are pure functions of the
seed; schedulers are deterministic and actually differ; serial and
pooled service runs produce byte-identical per-tenant baselines and
reports; resume re-runs zero jobs; contention slowdown is measured
against each job's isolated run on a *shared* capacity model.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.api import Scenario, Service, ServiceConfig, Session
from repro.cli import main
from repro.errors import ConfigurationError, SimulationError
from repro.experiments import fig_service
from repro.service import (
    BaselineProvider,
    JobRequest,
    ServiceRuntime,
    build_requests,
    make_scheduler,
    percentile,
    poisson_arrivals,
    service_metrics,
    validate_report,
)
from repro.service.metrics import build_report
from repro.service.runtime import _feasible_workers
from repro.sweep.orchestrator import run_sweep
from repro.sweep.study import get_study

#: Seconds-scale job class shared by most tests (LR/Higgs, 1 epoch).
FAST_JOB = dict(
    model="lr", dataset="higgs", workers=4, max_epochs=1.0,
    data_scale=1000, channel="s3", seed=11,
)


def fast_service(**overrides) -> ServiceConfig:
    base = dict(
        rate=3600.0, tenants=3, accounts=2, max_concurrent=2,
        model="lr", dataset="higgs", workers=4, max_epochs=1.0,
        data_scale=1000, channel="s3", seed=11,
    )
    base.update(overrides)
    return ServiceConfig(**base)


class TestArrivals:
    def test_poisson_is_a_pure_function_of_the_seed(self):
        first = poisson_arrivals(7, 60.0, 20)
        second = poisson_arrivals(7, 60.0, 20)
        assert first == second
        assert poisson_arrivals(8, 60.0, 20) != first

    def test_poisson_gaps_scale_with_rate(self):
        # Same seed, 100x the rate: the same unit draws stretched by
        # exactly the mean-gap ratio.
        slow = poisson_arrivals(0, 6.0, 50)
        fast = poisson_arrivals(0, 600.0, 50)
        assert slow[-1] / fast[-1] == pytest.approx(100.0)

    def test_poisson_strictly_increasing(self):
        times = poisson_arrivals(3, 120.0, 100)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_build_requests_cycles_accounts(self):
        requests = build_requests(fast_service(tenants=4, accounts=2))
        assert [r.tenant for r in sorted(requests, key=lambda r: r.job)] == [
            "acct0", "acct1", "acct0", "acct1"
        ]

    def test_trace_arrivals_override_config(self, tmp_path):
        trace = tmp_path / "load.json"
        trace.write_text(json.dumps([
            {"arrival_s": 0.0, "tenant": "acme", "priority": 2.0,
             "config": {"workers": 2, "batch_size": 500}},
            {"arrival_s": 5.0},
        ]))
        requests = build_requests(
            fast_service(arrivals="trace", trace=str(trace))
        )
        assert requests[0].tenant == "acme"
        assert requests[0].priority == 2.0
        assert requests[0].config_kwargs["workers"] == 2
        assert requests[1].config_kwargs["workers"] == 4

    def test_trace_must_be_a_nonempty_list_with_arrivals(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"tenant": "x"}]))
        with pytest.raises(ConfigurationError, match="arrival_s"):
            build_requests(fast_service(arrivals="trace", trace=str(bad)))

    @pytest.mark.parametrize(
        "content, complaint",
        [
            (None, "unreadable"),  # no such file
            ("[{\"arrival_s\": 0.0", "unreadable"),  # not JSON
            (json.dumps([{"arrival_s": "soon"}]), "entry 0 'arrival_s'"),
            (json.dumps([{"arrival_s": 0.0},
                         {"arrival_s": 1.0, "priority": [1]}]),
             "entry 1 'priority'"),
            (json.dumps([{"arrival_s": 0.0, "config": ["workers", 4]}]),
             "entry 0 'config'"),
            (json.dumps([{"arrival_s": -50}]), "entry 0 'arrival_s'"),
            (json.dumps([{"arrival_s": 0.0, "priority": float("nan")}]),
             "entry 0 'priority'"),
            (json.dumps([{"arrival_s": 0.0}, {"arrival_s": float("inf")}]),
             "entry 1 'arrival_s'"),
        ],
    )
    def test_malformed_trace_is_a_configuration_error(
        self, tmp_path, content, complaint
    ):
        # The --trace file is user-authored: every defect must surface
        # as a ConfigurationError naming the file and the entry, never a
        # raw FileNotFoundError / JSONDecodeError / ValueError / TypeError.
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content)
        with pytest.raises(ConfigurationError, match="bad.json") as caught:
            build_requests(fast_service(arrivals="trace", trace=str(bad)))
        assert complaint in str(caught.value)

    def test_bad_per_job_override_fails_before_any_engine_exists(
        self, tmp_path, monkeypatch
    ):
        # Per-job `config` overrides are outside input; a value outside a
        # closed set used to surface from the job's setup, after the
        # tenants ahead of it had already been simulated.
        import repro.simulation.engine as engine_module

        def no_engine(*args, **kwargs):
            raise AssertionError("an Engine was built")

        monkeypatch.setattr(engine_module.Engine, "__init__", no_engine)
        trace = tmp_path / "load.json"
        trace.write_text(json.dumps([
            {"arrival_s": 0.0},
            {"arrival_s": 1.0, "config": {"channel": "ftp"}},
        ]))
        with pytest.raises(ConfigurationError, match="load.json: entry 1") as caught:
            build_requests(fast_service(arrivals="trace", trace=str(trace)))
        assert "unknown channel 'ftp'" in str(caught.value)
        trace.write_text(json.dumps([{"arrival_s": 0.0, "config": {"wrokers": 2}}]))
        with pytest.raises(ConfigurationError, match="load.json: entry 0"):
            build_requests(fast_service(arrivals="trace", trace=str(trace)))

    def test_duplicate_job_ids_rejected(self, tmp_path):
        trace = tmp_path / "dup.json"
        trace.write_text(json.dumps([
            {"arrival_s": 0.0, "job": "a"}, {"arrival_s": 1.0, "job": "a"},
        ]))
        with pytest.raises(ConfigurationError, match="duplicate job ids"):
            build_requests(fast_service(arrivals="trace", trace=str(trace)))


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="unknown arrival"):
            ServiceConfig(arrivals="burst")
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            ServiceConfig(scheduler="lifo")
        with pytest.raises(ConfigurationError, match="rate"):
            ServiceConfig(rate=0.0)
        for rate in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="rate > 0 and finite"):
                ServiceConfig(rate=rate)
        with pytest.raises(ConfigurationError, match="trace"):
            ServiceConfig(arrivals="trace")

    def test_cache_channels_run_prestarted(self):
        # The service keeps a warm node pool, and isolated baselines use
        # the same setting — slowdown measures contention, not cold boots.
        assert fast_service(channel="memcached").job_kwargs()[
            "channel_prestarted"
        ]
        assert "channel_prestarted" not in fast_service().job_kwargs()


class TestSchedulers:
    def _request(self, job, tenant, cost_workers=4):
        return JobRequest(job, tenant, 0.0,
                          dict(FAST_JOB, workers=cost_workers))

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            make_scheduler("lifo")

    def test_fair_share_prefers_the_lightest_account(self):
        class State:
            tenant_busy_s = {"heavy": 100.0, "light": 1.0}

        queue = [self._request("a", "heavy"), self._request("b", "light")]
        assert make_scheduler("fair_share").pick(queue, State()) == 1

    def test_fifo_takes_arrival_order(self):
        queue = [self._request("a", "x"), self._request("b", "y")]
        assert make_scheduler("fifo").pick(queue, None) == 0

    def test_adaptive_halves_under_load(self):
        class State:
            running_jobs = 4
            queue = [None, None]
            max_concurrent = 4

        granted = make_scheduler("adaptive").workers_for(
            self._request("a", "x", cost_workers=8), State()
        )
        assert granted == 4

    def test_feasible_workers_clamps_oom_grants(self):
        # Global batch 10000 over 2 workers busts the 3 GB Lambda
        # envelope; the clamp walks the grant back toward the
        # submission until the config fits.
        from repro.core.config import config_validity_error

        kwargs = dict(model="lr", dataset="higgs", batch_size=10_000,
                      max_epochs=1.0, data_scale=1000, seed=11)
        assert config_validity_error(dict(kwargs, workers=2)) is not None
        granted = _feasible_workers(dict(kwargs, workers=4), 2, 4)
        assert granted > 2
        assert config_validity_error(dict(kwargs, workers=granted)) is None

    @pytest.mark.slow
    def test_figS_adaptive_trades_tail_latency_for_cost(self):
        # The figS panel at its default scale: every scheduler's
        # scorecard is possible, and the headline finding holds.
        study = get_study("figS")
        rows = study.aggregate(run_sweep(study.points()).artifacts)
        cards = {row["scheduler"]: row for row in rows}
        assert set(cards) == {"fifo", "fair_share", "cost_aware", "adaptive"}
        for name, card in cards.items():
            assert card["jobs"] == fig_service.JOBS == 12, name
            # Contention cannot speed a job up; simulated jobs are never free.
            assert card["mean_slowdown"] >= 1.0, name
            assert card["cost_per_job"] > 0, name
            assert card["p50_completion_s"] <= card["p99_completion_s"], name
        fifo, adaptive = cards["fifo"], cards["adaptive"]
        assert adaptive["cost_per_job"] < fifo["cost_per_job"]
        assert adaptive["p99_completion_s"] > fifo["p99_completion_s"]
        # ...and the study states it as its claim.
        (claim,) = study.claims
        assert claim.id == "figS.adaptive_trades_tail_for_cost"
        assert claim.check(rows) is None


class TestMetrics:
    def test_percentile_empty_raises(self):
        with pytest.raises(SimulationError):
            percentile([], 50.0)

    def test_percentile_single_and_interpolated(self):
        assert percentile([4.0], 99.0) == 4.0
        assert percentile([1.0, 3.0], 50.0) == 2.0
        assert percentile([1.0, 2.0, 10.0], 100.0) == 10.0

    def test_validate_report_shape(self):
        record = {"job": "j", "tenant": "t", "completion_s": 1.0,
                  "queue_s": 0.0, "slowdown": 1.0, "cost_dollars": 0.1,
                  "completed_s": 1.0, "converged": True}
        report = build_report("h", {"scheduler": "fifo"}, [record])
        assert validate_report(report) is report
        with pytest.raises(SimulationError, match="hash"):
            validate_report(report, expected_hash="other")
        with pytest.raises(SimulationError, match="missing"):
            validate_report({k: v for k, v in report.items() if k != "metrics"})
        with pytest.raises(SimulationError, match="no tenant"):
            validate_report(dict(report, tenants=[]))


class TestServiceDeterminism:
    def test_same_seed_byte_identical_reports(self):
        runs = []
        for _ in range(2):
            outcome = Service(arrivals=fast_service()).run()
            runs.append(json.dumps(outcome.data, sort_keys=True))
        assert runs[0] == runs[1]

    def test_serial_and_pooled_runs_byte_identical(self, tmp_path):
        # jobs=2 pools the isolated-baseline sweep across processes;
        # per-tenant baseline artifacts (minus host-dependent meta) and
        # the report itself must not notice.
        outs = {}
        for jobs in (1, 2):
            root = tmp_path / f"jobs{jobs}"
            outcome = Service(root, arrivals=fast_service(), jobs=jobs).run()
            artifacts = {
                p.name: json.loads(p.read_text())
                for p in (root / "baselines").glob("*.json")
            }
            for doc in artifacts.values():
                doc.pop("meta", None)
            outs[jobs] = (outcome.path.read_bytes(), artifacts)
        assert outs[1] == outs[2]

    def test_resume_reruns_zero_jobs(self, tmp_path):
        config = fast_service()
        first = Service(tmp_path, arrivals=config).run()
        assert first.ran_jobs == config.tenants
        second = Service(tmp_path, arrivals=config).run()
        assert second.ran_jobs == 0
        assert second.data == first.data
        assert second.path == first.path

    @pytest.mark.parametrize("damage", ["misfiled_hash", "truncated"])
    def test_corrupt_report_repaired(self, tmp_path, damage):
        config = fast_service()
        fresh = Service(tmp_path, arrivals=config).run()
        pristine = fresh.path.read_bytes()
        if damage == "truncated":
            fresh.path.write_bytes(pristine[:64])
        else:
            fresh.path.write_text(
                json.dumps(dict(fresh.data, service_hash="0" * 16))
            )
        messages = []
        healed = Service(
            tmp_path, arrivals=config, progress=messages.append
        ).run()
        assert healed.ran_jobs == config.tenants
        assert healed.path.read_bytes() == pristine
        (notice,) = [m for m in messages if "corrupt service report" in m]
        assert fresh.path.name in notice
        assert ("partial" if damage == "truncated" else "filed under") in notice

    def test_schedulers_rekey_the_report(self, tmp_path):
        fifo = Service(tmp_path, arrivals=fast_service()).run()
        fair = Service(
            tmp_path, arrivals=fast_service(), scheduler="fair_share"
        ).run()
        assert fifo.path != fair.path


class TestServiceRuntime:
    def test_contention_slowdown_measured_on_shared_capacity(self):
        # Eight comm-bound jobs arriving together on one redis node:
        # somebody must wait for somebody else's transfers.
        kwargs = dict(model="lr", dataset="rcv1", workers=4, max_epochs=1.0,
                      data_scale=2000, channel="redis",
                      channel_prestarted=True, seed=11)
        requests = [
            JobRequest(f"j{i}", f"acct{i % 2}", 0.0, dict(kwargs))
            for i in range(4)
        ]
        runtime = ServiceRuntime(
            requests, make_scheduler("fifo"), 4, BaselineProvider()
        )
        records = runtime.run()
        metrics = service_metrics(records)
        assert metrics["max_slowdown"] > 1.0
        assert all(r["slowdown"] >= 1.0 for r in records)

    def test_queueing_respects_the_concurrency_limit(self):
        requests = [
            JobRequest(f"j{i}", "acct0", 0.0, dict(FAST_JOB))
            for i in range(3)
        ]
        runtime = ServiceRuntime(
            requests, make_scheduler("fifo"), 1, BaselineProvider()
        )
        records = runtime.run()
        # One at a time: each job starts only after the previous ends.
        admitted = sorted(r["admitted_s"] for r in records)
        completed = sorted(r["completed_s"] for r in records)
        assert admitted[1] == completed[0]
        assert admitted[2] == completed[1]
        assert sum(r["queue_s"] > 0 for r in records) == 2


class TestBaselineProvider:
    def test_a_primed_trace_replays_without_training(self, monkeypatch):
        """A rooted service primes the traces on disk by stat hash; a job
        of that fingerprint must replay one, not train again."""
        import repro.service.runtime as runtime_module
        from repro.core.config import TrainingConfig
        from repro.core.driver import train
        from repro.substrate import ExactSubstrate, ReplaySubstrate

        recorder = ExactSubstrate()
        train(TrainingConfig(**FAST_JOB), recorder)
        provider = BaselineProvider()
        provider.prime_traces({TrainingConfig(**FAST_JOB).stat_hash(): recorder.trace})

        def refuse(config, substrate=None):
            raise AssertionError(f"trained {config.describe()} despite a primed trace")

        monkeypatch.setattr(runtime_module, "train", refuse)
        # A fresh config object, as the runtime builds one per admission.
        substrate = provider.substrate_for(TrainingConfig(**FAST_JOB))
        assert isinstance(substrate, ReplaySubstrate)


class TestServiceFacade:
    def test_submit_pulls_tenant_identity_from_scenario_tags(self):
        service = Service(arrivals=None, scheduler="fifo")
        request = service.submit(
            Scenario(dict(FAST_JOB)).tenant("acme", priority=1.5),
            arrival_s=3.0,
        )
        assert request.tenant == "acme"
        assert request.priority == 1.5
        assert request.arrival_s == 3.0
        untagged = service.submit(Scenario(dict(FAST_JOB)))
        assert untagged.tenant == "default"

    def test_tenant_tags_do_not_touch_the_config_hash(self):
        plain = Scenario(dict(FAST_JOB))
        tagged = plain.tenant("acme", priority=2.0)
        assert tagged.tags["tenant"] == "acme"
        assert plain.point().hash() == tagged.point().hash()
        assert tagged.point().tags["tenant"] == "acme"

    def test_empty_service_rejected(self):
        with pytest.raises(ConfigurationError, match="no jobs"):
            Service().run()

    def test_bad_substrate_rejected(self):
        # No rooted facade takes a substrate, not even the one a sweep
        # runs: every sweep records once per fingerprint, replays the rest.
        for facade in (Service, Session):
            for substrate in ("replay", "auto"):
                with pytest.raises(TypeError, match="substrate"):
                    facade(substrate=substrate)

    @pytest.mark.parametrize("facade", [Service, Session])
    def test_zero_jobs_rejected_at_construction(self, facade):
        # One check for every rooted facade (repro.api.report), before
        # any verb runs a sweep.
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            facade(jobs=0)

    @pytest.mark.parametrize("limit", [0, -2])
    def test_nonpositive_concurrency_rejected_at_construction(self, limit):
        # ServiceConfig's rule, applied to the explicit argument too —
        # not after the baselines trained and the queue never drained.
        with pytest.raises(ConfigurationError, match="max-concurrent must be >= 1"):
            Service(max_concurrent=limit)

    def test_unknown_scheduler_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown scheduler 'lifo'"):
            Service(scheduler="lifo")

    def test_session_and_service_share_one_root_layout(self, tmp_path):
        # A Session used to file its traces under <root>/<study>/traces,
        # where no other facade looked; now whatever launched a run
        # records into — and replays from — <root>/traces.
        config = fast_service()
        Session(tmp_path).run(Scenario(**config.job_kwargs()))
        messages = []
        Service(tmp_path, arrivals=config, progress=messages.append).run()
        assert sorted(tmp_path.rglob("traces")) == [tmp_path / "traces"]
        assert len(list((tmp_path / "traces").iterdir())) == 1
        (phase0,) = [m for m in messages if m.startswith("phase 0")]
        assert phase0.startswith("phase 0: 0 exact recording(s)")

    def test_submitted_jobs_join_generated_arrivals(self):
        service = Service(arrivals=fast_service(tenants=2))
        service.submit(
            Scenario(dict(FAST_JOB)).tenant("acme"), arrival_s=0.5
        )
        outcome = service.run()
        assert len(outcome.tenants) == 3
        assert {r["tenant"] for r in outcome.tenants} == {
            "acct0", "acct1", "acme"
        }


class TestServeCli:
    ARGS = ["serve", "--rate", "3600", "--tenants", "2", "--accounts", "2",
            "--max-concurrent", "2", "--workers", "4", "--max-epochs", "1",
            "--data-scale", "1000", "--seed", "11"]

    def test_serve_runs_and_reports(self, capsys):
        assert main(self.ARGS) == 0
        captured = capsys.readouterr()
        assert "Service report" in captured.out
        assert "p99" in captured.out
        assert "2 job(s) simulated" in captured.err

    def test_serve_resumes_from_the_report(self, tmp_path, capsys):
        args = self.ARGS + ["--out", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().err
        assert "2 job(s) simulated" in first
        assert main(args) == 0
        second = capsys.readouterr().err
        assert "report resumed, 0 job(s) re-run" in second

    def test_serve_json_document_validates(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        document = json.loads(capsys.readouterr().out)  # all of stdout
        validate_report(document)
        assert document["service"]["service"]["scheduler"] == "fifo"


def test_service_config_is_frozen_and_fingerprintable():
    from repro.service import service_fingerprint, service_hash

    config = fast_service()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.rate = 1.0
    fingerprint = service_fingerprint(config)
    assert fingerprint["rate"] == 3600.0
    assert service_hash(config) == service_hash(fast_service())
    assert service_hash(config) != service_hash(fast_service(seed=12))


class TestJainFairness:
    """Satellite: Jain's index over per-tenant slowdowns in the scorecard."""

    def test_equal_allocations_score_one(self):
        from repro.service import jain_fairness

        assert jain_fairness([2.0, 2.0, 2.0]) == pytest.approx(1.0)
        assert jain_fairness([5.0]) == pytest.approx(1.0)

    def test_known_value(self):
        from repro.service import jain_fairness

        # (1+3)^2 / (2 * (1+9)) = 16/20.
        assert jain_fairness([1.0, 3.0]) == pytest.approx(0.8)

    def test_empty_series_rejected(self):
        from repro.service import jain_fairness

        with pytest.raises(SimulationError):
            jain_fairness([])

    def test_scorecard_carries_fairness(self):
        from repro.service import service_metrics

        records = [
            {"tenant": t, "slowdown": s, "completion_s": 10.0,
             "completed_s": 10.0, "queue_s": 0.0, "cost_dollars": 0.1,
             "converged": True}
            for t, s in [("a", 1.0), ("a", 1.2), ("b", 2.0)]
        ]
        metrics = service_metrics(records)
        # Per-tenant means are [1.1, 2.0]; Jain over those, not per-job.
        expected = (1.1 + 2.0) ** 2 / (2 * (1.1**2 + 2.0**2))
        assert metrics["fairness_jain"] == pytest.approx(expected)
        assert 0.0 < metrics["fairness_jain"] <= 1.0
