"""Scenario fuzzer: space determinism, shrinking, corpus, bug detection.

The chaos suite's own contract is tested at three levels: the sampler
(content-addressed, valid, byte-stable), the machinery (shrinker and
corpus with synthetic invariants — no trainings), and the whole loop
(a deliberately broken stacked step must be *caught* by a campaign and
*shrunk* to a minimal repro; restoring the step turns it green).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
from collections import Counter

import pytest

from repro.core.config import config_validity_error
from repro.errors import FuzzError
from repro.fuzz import (
    INVARIANTS,
    CorpusEntry,
    Invariant,
    ScenarioSpace,
    load_corpus,
    load_entry,
    plan_campaign,
    replay_entry,
    run_campaign,
    save_entry,
    shrink,
    sibling_kwargs,
)
from repro.fuzz.shrink import MAX_EVALS
from repro.optim.base import stacked
from repro.optim.gradient_averaging import GradientAveragingSGD


class TestScenarioSpace:
    def test_sampling_is_byte_identical_across_instances(self):
        first = ScenarioSpace(0).scenarios(50)
        second = ScenarioSpace(0).scenarios(50)
        assert [s.config_kwargs for s in first] == [s.config_kwargs for s in second]

    def test_every_scenario_is_a_valid_config(self):
        for scenario in ScenarioSpace(3).scenarios(100):
            assert config_validity_error(scenario.config_kwargs) is None

    def test_scenario_id_alone_reproduces_the_kwargs(self):
        scenario = ScenarioSpace(0).scenario(17)
        again = ScenarioSpace.from_id(scenario.scenario_id)
        assert again.config_kwargs == scenario.config_kwargs
        assert again.scenario_id == "0:17"

    def test_different_seeds_sample_different_scenarios(self):
        a = [s.config_kwargs for s in ScenarioSpace(0).scenarios(20)]
        b = [s.config_kwargs for s in ScenarioSpace(1).scenarios(20)]
        assert a != b

    def test_bad_scenario_id_is_rejected(self):
        with pytest.raises(FuzzError, match="expected 'seed:index'"):
            ScenarioSpace.from_id("not-an-id")

    def test_space_covers_the_major_axes(self):
        """The conditioned sampler must not silently starve an axis."""
        scenarios = ScenarioSpace(0).scenarios(200)
        kwargs = [s.config_kwargs for s in scenarios]
        systems = {k["system"] for k in kwargs}
        assert systems >= {"lambdaml", "pytorch", "hybridps"}
        assert {k["algorithm"] for k in kwargs} >= {"ma_sgd", "ga_sgd", "admm", "em"}
        assert any(k.get("protocol") == "asp" for k in kwargs)
        assert any("mttf_s" in k for k in kwargs)
        assert any("storage_error_rate" in k for k in kwargs)
        assert any(k.get("checkpoint_interval", 1) > 1 for k in kwargs)


def _gate_counts(plan) -> dict[str, int]:
    return dict(Counter(name for task in plan for name in task.invariants))


class TestCampaignPlan:
    def test_plan_is_deterministic_and_gates_every_scenario(self):
        plan = plan_campaign(seed=0, budget=30)
        again = plan_campaign(seed=0, budget=30)
        assert plan == again
        # `completes` has probability 1.0: every scenario runs it.
        assert all("completes" in task.invariants for task in plan)
        # The gated invariants must each land on *some* scenario.
        gated = {name for task in plan for name in task.invariants}
        assert {"determinism_under_rerun", "stat_sibling_invariance"} <= gated
        # The reference plan's gate counts: sampler or gating drift is a
        # test failure here, not silently different coverage.
        assert _gate_counts(plan_campaign(seed=0, budget=50)) == {
            "completes": 50,
            "determinism_under_rerun": 11,
            "fault_invariance": 11,
            "replay_matches_exact": 16,
            "stat_sibling_invariance": 21,
        }

    @pytest.mark.slow
    def test_campaign_checks_exactly_what_the_plan_gated(self):
        result = run_campaign(budget=2, seed=0, workers=1, corpus_dir=None)
        assert result.ok, [f.describe() for f in result.findings]
        assert result.scenarios == 2
        assert result.checks == _gate_counts(plan_campaign(seed=0, budget=2))

    def test_sibling_prefers_the_platform_flip(self):
        sibling = sibling_kwargs(
            {"model": "lr", "dataset": "higgs", "system": "lambdaml", "workers": 4}
        )
        assert sibling["system"] == "pytorch"

    def test_platform_flip_drops_faas_axes_and_fault_plane(self):
        sibling = sibling_kwargs(
            {
                "model": "lr",
                "dataset": "higgs",
                "system": "lambdaml",
                "workers": 4,
                "channel": "redis",
                "pattern": "scatterreduce",
                "mttf_s": 90.0,
                "checkpoint_interval": 2,
            }
        )
        assert sibling["system"] == "pytorch"
        for gone in ("channel", "pattern", "mttf_s", "checkpoint_interval"):
            assert gone not in sibling


# A synthetic invariant lets the shrinker be tested without trainings:
# it "fails" iff workers >= 3 and a channel is set.
def _needs_three_workers_and_channel(kwargs):
    if kwargs.get("workers", 10) >= 3 and "channel" in kwargs:
        return "synthetic failure"
    return None


_SYNTHETIC = Invariant(
    name="synthetic",
    description="test-only",
    probability=1.0,
    applies=lambda kwargs: True,
    check=_needs_three_workers_and_channel,
)


class TestShrink:
    def test_shrinker_drops_irrelevant_fields_and_minimises_ladders(self):
        bloated = {
            "model": "lr",
            "dataset": "higgs",
            "system": "lambdaml",
            "workers": 8,
            "channel": "redis",
            "pattern": "scatterreduce",
            "straggler_jitter": 0.2,
            "mttf_s": 90.0,
            "data_scale": 200,
            "max_epochs": 2,
            "seed": 20210620,
        }
        result = shrink(_SYNTHETIC, bloated, "synthetic failure")
        assert result.message == "synthetic failure"
        # Every field the failure does not need is gone...
        for gone in ("pattern", "straggler_jitter", "mttf_s", "seed"):
            assert gone not in result.kwargs
        # ...the load-bearing ones survive, minimised along the ladder
        # (workers=2 passes the predicate, so 3 is the true floor).
        assert result.kwargs["workers"] == 3
        assert "channel" in result.kwargs
        assert result.evals <= MAX_EVALS

    def test_shrinker_never_probes_invalid_configs(self):
        probed = []

        def recording_check(kwargs):
            probed.append(dict(kwargs))
            return "still failing"

        inv = Invariant(
            name="recorder", description="", probability=1.0,
            applies=lambda kwargs: True, check=recording_check,
        )
        start = {"model": "kmeans", "dataset": "higgs", "algorithm": "em",
                 "k": 5, "workers": 4, "data_scale": 500, "max_epochs": 1}
        shrink(inv, start, "still failing")
        for kwargs in probed:
            assert config_validity_error(kwargs) is None


class TestCorpus:
    def test_save_load_roundtrip(self, tmp_path):
        entry = CorpusEntry(
            invariant="completes",
            config_kwargs={"model": "lr", "dataset": "higgs", "workers": 2,
                           "data_scale": 500, "max_epochs": 1},
            scenario_id="0:5",
            message="it broke",
            shrunk_fields=["channel"],
        )
        path = save_entry(tmp_path, entry)
        assert path.name == "completes-0-5.json"
        assert load_entry(path) == entry
        assert load_corpus(tmp_path) == [entry]

    def test_unknown_invariant_is_rejected_at_replay(self):
        entry = CorpusEntry(
            invariant="no_such_property", config_kwargs={}, scenario_id="0:0",
            message="",
        )
        with pytest.raises(FuzzError, match="unknown invariant"):
            replay_entry(entry)

    def test_wrong_schema_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "invariant": "completes"}))
        with pytest.raises(FuzzError, match="schema"):
            load_entry(path)

    def test_missing_corpus_dir_is_empty_not_an_error(self, tmp_path):
        assert load_corpus(tmp_path / "nowhere") == []


#: GA-SGD's own (stacked) step, as the class defines it.
_TRUE_GA_STEP = GradientAveragingSGD.__dict__["round_payloads"]


def _reversed_fold(cls, algos, shards):
    """GA-SGD's stacked step handing back its gradients in reversed rank
    order, so the lockstep pass folds them backwards (float addition is
    not associative: the merged gradient moves in the last ulps)."""
    payloads = _TRUE_GA_STEP.__func__(cls, algos, shards)
    return payloads[::-1] if stacked(algos, shards) else payloads


def _break_the_stacked_step(monkeypatch):
    monkeypatch.setattr(GradientAveragingSGD, "round_payloads", classmethod(_reversed_fold))


from repro.fuzz.runner import _check_task as _real_check_task


def _suicidal_check_task(task):
    """Pool-side stand-in that dies hard on one scenario (fork-inherited)."""
    if task.index == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return _real_check_task(task)


class TestCampaignResilience:
    @pytest.mark.slow
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the suicidal stand-in reaches pool children via fork",
    )
    def test_dead_fuzz_worker_is_a_finding_not_a_hang(self, monkeypatch):
        import repro.fuzz.runner as runner

        monkeypatch.setattr(runner, "_check_task", _suicidal_check_task)
        result = run_campaign(
            budget=3, seed=0, workers=2, corpus_dir=None, shrink_failures=False,
        )
        # The campaign finished; the OOM-killed scenario is one finding.
        assert result.scenarios == 3
        deaths = [f for f in result.findings if f.invariant == "process_survives"]
        assert len(deaths) == 1
        assert deaths[0].scenario_id == "0:1"
        assert "died" in deaths[0].message
        # Death findings have no in-process check to shrink against.
        assert deaths[0].shrunk_kwargs is None
        # The other scenarios were still checked.
        others = {f.scenario_id for f in result.findings} - {"0:1"}
        assert result.checks["completes"] == 3
        assert not others  # healthy engine: nothing else failed


class TestChaosCatchesRealBugs:
    """Break the lockstep pass on purpose; the suite must notice and minimise."""

    # Only the rank-by-rank reference steps GA-SGD without the stacked
    # call, so replay_matches_exact is the invariant that sees a broken
    # one. This is the shrunk repro the shrinker itself produces from the
    # bloated campaign counterexample below (scenario 105:0).
    MINIMAL_BROKEN = {
        "model": "lr", "dataset": "higgs", "algorithm": "ga_sgd",
        "workers": 4, "data_scale": 200, "max_epochs": 1,
    }

    def test_reversed_fold_is_caught_and_shrunk(self, monkeypatch):
        inv = INVARIANTS["replay_matches_exact"]
        bloated = {
            **self.MINIMAL_BROKEN,
            "system": "pytorch", "workers": 6, "batch_size": 10000, "lr": 0.1,
            "seed": 3, "straggler_jitter": 0.2, "mttf_s": 3600.0,
            "storage_error_rate": 0.05, "storage_retry_limit": 5,
        }
        assert inv.check(dict(bloated)) is None  # healthy engine: holds

        _break_the_stacked_step(monkeypatch)
        message = inv.check(dict(bloated))
        assert message is not None and "rank-by-rank reference" in message

        result = shrink(inv, bloated, message)
        assert result.kwargs == self.MINIMAL_BROKEN
        # Reversing two contributions commutes, so no repro has fewer than three.
        assert result.kwargs["workers"] >= 3
        assert len(result.kwargs) < len(bloated)

    def test_minimal_repro_is_green_on_the_healthy_engine(self):
        inv = INVARIANTS["replay_matches_exact"]
        assert inv.check(dict(self.MINIMAL_BROKEN)) is None

    @pytest.mark.slow
    def test_campaign_catches_the_reversed_fold_within_budget(
        self, monkeypatch, tmp_path
    ):
        _break_the_stacked_step(monkeypatch)
        # workers=1: the monkeypatch only exists in this process. Scenario
        # 0:18 is the reference campaign's first dense GA-SGD config gated
        # on replay_matches_exact. The eval cap keeps the shrink inside the
        # per-test timeout; minimality is asserted by the dedicated test.
        result = run_campaign(
            budget=19, seed=0, workers=1, corpus_dir=tmp_path,
            shrink_failures=True, shrink_max_evals=12,
        )
        assert not result.ok
        finding = result.findings[0]
        assert finding.scenario_id == "0:18"
        # Every other invariant replays the (broken) stacked trace on both
        # sides; only the reference check steps the ranks one by one.
        assert finding.invariant == "replay_matches_exact"
        assert finding.shrunk_kwargs is not None
        assert len(finding.shrunk_kwargs) <= len(finding.config_kwargs)
        assert finding.corpus_path is not None
        # The saved counterexample replays red while the bug exists...
        entry = load_entry(finding.corpus_path)
        assert replay_entry(entry) is not None
        # ...and green once the stacked step is restored.
        monkeypatch.setattr(GradientAveragingSGD, "round_payloads", _TRUE_GA_STEP)
        assert replay_entry(entry) is None


class TestSweepRoundtrip:
    """Every sweep is two-phase and runs a lone task inline, so the
    invariant adds a reseeded point: two recordings reach the pool."""

    KWARGS = {
        "model": "lr", "dataset": "higgs", "algorithm": "ma_sgd",
        "workers": 3, "data_scale": 500, "max_epochs": 1, "seed": 3,
    }

    def test_pooled_sweep_fans_two_recordings_over_the_pool(self, pool_widths):
        assert INVARIANTS["sweep_roundtrip"].check(dict(self.KWARGS)) is None
        # The serial sweep opens no pool; the pooled one opens it once,
        # for phase 0, and replays the platform sibling inline.
        assert pool_widths == [2]
