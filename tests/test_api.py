"""The public ``repro.api`` facade: Scenario, Session, run/sweep/compare.

The contract under test (ISSUE 5 acceptance criteria):

* ``Scenario`` builds/varies/grids configs without touching internals;
* ``Session(out).sweep(study)`` persists artifacts and a second,
  identical call re-runs **zero** points (resume is the default);
* ``run``/``compare`` go through the same content-addressed cache;
* ad-hoc scenario lists sweep like registered studies.

Everything trains the 1/5000-scale LR/Higgs configuration (~0.4 s per
exact point; most points replay).
"""

from __future__ import annotations

import pytest

from repro import api
from repro.api import Scenario, Session
from repro.core.config import TrainingConfig
from repro.core.driver import train
from repro.errors import ConfigurationError

SMOKE = dict(
    model="lr", dataset="higgs", algorithm="admm", system="lambdaml",
    workers=4, data_scale=5000, loss_threshold=0.66, max_epochs=2.0,
)


class TestScenario:
    def test_kwargs_and_keyword_forms_agree(self):
        assert Scenario(SMOKE).kwargs == Scenario(**SMOKE).kwargs

    def test_workload_seeds_from_table4(self):
        s = Scenario.workload("lr", "higgs")
        config = s.config()
        assert (config.algorithm, config.workers) == ("admm", 10)
        assert config.loss_threshold == 0.66
        assert config.batch_size == 10_000

    def test_workload_overrides_win(self):
        s = Scenario.workload("lr", "higgs", workers=3, lr=0.5)
        assert s.config().workers == 3
        assert s.config().lr == 0.5

    def test_vary_returns_a_copy(self):
        base = Scenario(SMOKE)
        varied = base.vary(workers=8)
        assert varied.config().workers == 8
        assert base.config().workers == 4  # untouched

    def test_grid_expands_with_labels(self):
        scenarios = Scenario(SMOKE).grid(
            channel=("s3", "memcached"), pattern=("allreduce", "scatterreduce")
        )
        assert len(scenarios) == 4
        assert scenarios[0].label == "channel=s3,pattern=allreduce"
        assert {s.config().channel for s in scenarios} == {"s3", "memcached"}

    def test_grid_axis_replaces_what_the_base_sets(self):
        # Table 4 always sets `workers`; a scaling study sweeps it.
        points = Scenario.workload("lr", "higgs").grid(workers=(4, 8))
        assert [p.config().workers for p in points] == [4, 8]
        assert [p.label for p in points] == ["workers=4", "workers=8"]
        # expand_grid itself still refuses the collision.
        with pytest.raises(ConfigurationError, match="also set in base"):
            list(api.expand_grid({"workers": 10}, {"workers": (4, 8)}))

    def test_config_validation_still_applies(self):
        with pytest.raises(ConfigurationError):
            Scenario(dict(SMOKE, system="borg")).config()

    def test_point_carries_label_and_tags(self):
        point = Scenario(SMOKE).named("probe", series="x").point("adhoc")
        assert (point.experiment, point.label) == ("adhoc", "probe")
        assert point.tags == {"series": "x"}


class TestRun:
    def test_run_matches_direct_train(self):
        via_api = api.run(Scenario(SMOKE))
        direct = train(TrainingConfig(**SMOKE))
        assert via_api.duration_s == direct.duration_s
        assert via_api.cost_total == direct.cost_total
        assert via_api.final_loss == direct.final_loss
        assert via_api.loss_curve() == direct.loss_curve()

    def test_session_run_is_cached(self, tmp_path):
        session = Session(tmp_path)
        first = session.run(Scenario(SMOKE))
        files = sorted((tmp_path / "runs").glob("*.json"))
        assert len(files) == 1
        second = session.run(Scenario(SMOKE))
        assert sorted((tmp_path / "runs").glob("*.json")) == files
        assert second.duration_s == first.duration_s
        assert second.loss_curve() == first.loss_curve()


class TestSessionSweep:
    def test_sweep_then_resweep_runs_zero_points(self, tmp_path):
        session = Session(tmp_path, jobs=2)
        first = session.sweep("smoke")
        assert (first.run.ran, first.run.skipped) == (6, 0)
        assert (first.run.recorded, first.run.replayed) == (1, 5)
        assert len(list((tmp_path / "smoke").glob("*.json"))) == 6

        second = session.sweep("smoke")
        assert (second.run.ran, second.run.skipped) == (0, 6)
        assert second.report().startswith("Smoke sweep")
        assert session.plan("smoke")["pending_points"] == 0

    def test_adhoc_scenario_sweep(self, tmp_path):
        grid = Scenario(SMOKE).grid(channel=("s3", "memcached"))
        session = Session(tmp_path)
        outcome = session.sweep(grid)
        assert outcome.study is None
        assert [label for label, _ in outcome.result] == [
            "channel=s3", "channel=memcached",
        ]
        assert "Ad-hoc sweep" in outcome.report()
        again = session.sweep(grid)
        assert (again.run.ran, again.run.skipped) == (0, 2)

    def test_plan_accepts_what_sweep_accepts(self, tmp_path):
        # plan() used to die with AttributeError on the ad-hoc lists
        # sweep() takes; both now resolve their argument the same way.
        grid = Scenario(SMOKE).grid(channel=("s3", "memcached"))
        session = Session(tmp_path)
        plan = session.plan(grid)
        assert (plan["points"], plan["pending_points"]) == (2, 2)
        assert plan["out_dir"] == str(tmp_path / "adhoc")
        session.sweep(grid)
        assert session.plan(grid)["pending_points"] == 0
        assert Session(None).plan([Scenario(SMOKE)])["points"] == 1
        for bad in (42, [42]):
            with pytest.raises(ConfigurationError):
                session.plan(bad)
            with pytest.raises(ConfigurationError):
                session.sweep(bad)

    def test_in_memory_session_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        outcome = api.sweep([Scenario(SMOKE)])
        assert outcome.run.ran == 1
        assert list(tmp_path.iterdir()) == []


class TestCompare:
    def test_compare_labels_and_cache(self, tmp_path):
        session = Session(tmp_path)
        scenarios = {
            "faas": Scenario(SMOKE),
            "iaas": Scenario(SMOKE).vary(system="pytorch"),
        }
        verdict = session.compare(scenarios)
        assert list(verdict.results) == ["faas", "iaas"]
        assert verdict["faas"].duration_s != verdict["iaas"].duration_s
        report = verdict.report("head to head")
        assert report.splitlines()[0] == "head to head"
        assert "faas" in report and "iaas" in report
        # Both comparisons share the runs/ cache with session.run().
        assert len(list((tmp_path / "runs").glob("*.json"))) == 2
        session.compare(scenarios)  # second pass: nothing re-trained
        assert len(list((tmp_path / "runs").glob("*.json"))) == 2

    def test_unlabelled_compare_uses_describe(self):
        verdict = api.compare([Scenario(SMOKE).named("probe")])
        assert list(verdict.results) == ["probe"]

    def test_duplicate_configs_keep_their_labels(self):
        # The orchestrator dedupes identical configs; labels must still
        # map to their own scenario's result, never positionally.
        base = Scenario(SMOKE)
        verdict = api.compare({
            "a": base, "also-a": base, "bigger": base.vary(workers=8),
        })
        assert list(verdict.results) == ["a", "also-a", "bigger"]
        assert verdict["a"].duration_s == verdict["also-a"].duration_s
        assert verdict["bigger"].config.workers == 8
        assert verdict["bigger"].duration_s != verdict["a"].duration_s


class TestSeedHandling:
    def test_explicit_zero_seed_is_respected(self, tmp_path):
        outcome = Session(tmp_path).sweep("smoke", seed=0)
        assert outcome.artifacts
        assert all(a["config"]["seed"] == 0 for a in outcome.artifacts)
