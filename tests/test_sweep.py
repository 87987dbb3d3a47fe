"""The sweep subsystem: grids, artifacts, orchestration, CLI.

The contract under test (ISSUE 2 acceptance criteria):

* configs are content-addressed — hashes cover defaults and survive
  spelling differences;
* artifacts are atomic, validated JSON — corrupt/partial/stale files
  are detected and simply re-run;
* ``--resume`` re-runs zero completed points;
* a pooled sweep (``jobs > 1``) produces byte-identical artifacts to a
  serial one (determinism across the process boundary).

All training here runs the registry's ``smoke`` grid (LR/Higgs at
1/5000 scale, 2-epoch cap): ~0.4 s per point.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal

import pytest

from repro.cli import main
from repro.core.config import TrainingConfig
from repro.core.driver import train
from repro.errors import ConfigurationError
from repro.sweep.artifacts import (
    ArtifactError,
    artifact_from_result,
    artifact_path,
    load_artifact,
    result_from_artifact,
    scan_artifacts,
    write_artifact,
)
from repro.sweep.grid import SweepPoint, config_hash, dedupe_points, expand_grid
from repro.sweep.orchestrator import plan_sweep, run_sweep
from repro.sweep.study import StudyContext, get_study

SMOKE_POINTS = get_study("smoke").points


ASP_POINT = SweepPoint(
    "x", "asp-point",
    config_kwargs=dict(
        model="lr", dataset="higgs", algorithm="ga_sgd",
        protocol="asp", data_scale=5000, max_epochs=1.0, workers=4,
    ),
)


def strip_meta(artifact: dict) -> dict:
    return {key: value for key, value in artifact.items() if key != "meta"}


class TestConfigHash:
    def test_defaults_do_not_change_the_hash(self):
        implicit = TrainingConfig(model="lr", dataset="higgs", algorithm="admm")
        explicit = TrainingConfig(
            model="lr", dataset="higgs", algorithm="admm",
            workers=10, channel="s3", pattern="allreduce",  # the defaults, spelled out
        )
        assert config_hash(implicit) == config_hash(explicit)

    def test_any_field_change_changes_the_hash(self):
        base = TrainingConfig(model="lr", dataset="higgs", algorithm="admm")
        for change in (
            dict(workers=11), dict(channel="redis"), dict(seed=7),
            dict(pattern="scatterreduce"), dict(lr=0.2),
        ):
            other = TrainingConfig(
                model="lr", dataset="higgs", algorithm="admm", **change
            )
            assert config_hash(other) != config_hash(base), change

    def test_equal_configs_hash_equal_across_numeric_spellings(self):
        # argparse delivers floats (--max-epochs 40 -> 40.0) while grid
        # declarations use ints; equal configs must collide on hash or
        # resume re-runs entire sweeps.
        as_int = TrainingConfig(
            model="lr", dataset="higgs", algorithm="admm", max_epochs=40
        )
        as_float = TrainingConfig(
            model="lr", dataset="higgs", algorithm="admm", max_epochs=40.0
        )
        assert as_int == as_float
        assert config_hash(as_int) == config_hash(as_float)

    def test_expand_grid_order_and_base_collision(self):
        kwargs = list(expand_grid({"a": 1}, {"x": (1, 2), "y": ("p", "q")}))
        assert kwargs == [
            {"a": 1, "x": 1, "y": "p"},
            {"a": 1, "x": 1, "y": "q"},
            {"a": 1, "x": 2, "y": "p"},
            {"a": 1, "x": 2, "y": "q"},
        ]
        with pytest.raises(ConfigurationError):
            list(expand_grid({"x": 1}, {"x": (1, 2)}))

    def test_dedupe_collapses_identical_configs(self):
        points = SMOKE_POINTS()
        assert len(dedupe_points(points + points)) == len(points)


class TestArtifacts:
    # What every document kind shares — no tmp file left behind, scan
    # ignoring foreign files, misfiled documents — is asserted once for
    # all kinds in tests/test_store.py; these pin the artifact bindings
    # and their messages.
    @pytest.fixture(scope="class")
    def artifact(self):
        return run_sweep(SMOKE_POINTS()[:1]).artifacts[0]

    def test_roundtrip_preserves_result(self, artifact, tmp_path):
        path = write_artifact(tmp_path, artifact)
        assert path == artifact_path(tmp_path, artifact["config_hash"])
        loaded = load_artifact(path, expected_hash=artifact["config_hash"])
        assert loaded == artifact
        result = result_from_artifact(loaded)
        assert result.duration_s == artifact["result"]["duration_s"]
        assert result.config.workers == artifact["config"]["workers"]
        assert result.loss_curve()  # history survives the roundtrip
        assert result.breakdown.get("compute") > 0

    def test_partial_json_is_corrupt(self, artifact, tmp_path):
        path = write_artifact(tmp_path, artifact)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ArtifactError, match="partial"):
            load_artifact(path)
        completed, corrupt = scan_artifacts(tmp_path)
        assert completed == {} and corrupt == [path]

    def test_tampered_config_is_corrupt(self, artifact, tmp_path):
        path = write_artifact(tmp_path, artifact)
        tampered = json.loads(path.read_text())
        tampered["config"]["workers"] += 1  # no longer matches config_hash
        path.write_text(json.dumps(tampered))
        with pytest.raises(ArtifactError, match="hash mismatch"):
            load_artifact(path)

    def test_foreign_schema_is_corrupt(self, artifact, tmp_path):
        path = write_artifact(tmp_path, dict(artifact, schema=999))
        with pytest.raises(ArtifactError, match="schema"):
            load_artifact(path)

    def test_missing_schema_keys_are_corrupt(self, artifact, tmp_path):
        # The aggregators dereference tags/label/experiment; an artifact
        # without them must read as corrupt (re-run), not crash later.
        for key in ("tags", "label", "experiment", "result"):
            stripped = {k: v for k, v in artifact.items() if k != key}
            path = write_artifact(tmp_path, stripped)
            with pytest.raises(ArtifactError, match="missing keys"):
                load_artifact(path)

    def test_wrongly_typed_values_are_corrupt(self, artifact, tmp_path):
        # {"meta": null} must read as corrupt (re-run), not crash the
        # resume path on artifact["meta"].get(...).
        for key, bad in (("meta", None), ("tags", "faas"), ("result", [1])):
            path = write_artifact(tmp_path, dict(artifact, **{key: bad}))
            with pytest.raises(ArtifactError, match=key):
                load_artifact(path)


class TestOrchestrator:
    def test_resume_skips_completed_hashes(self, tmp_path):
        points = SMOKE_POINTS()
        first = run_sweep(points, out_dir=tmp_path, jobs=1)
        assert (first.ran, first.skipped) == (len(points), 0)

        second = run_sweep(points, out_dir=tmp_path, jobs=1, resume=True)
        assert (second.ran, second.skipped) == (0, len(points))
        assert [a["config_hash"] for a in second.artifacts] == [
            a["config_hash"] for a in first.artifacts
        ]

        # Dropping one artifact re-runs exactly that point.
        victim = first.artifacts[1]["config_hash"]
        artifact_path(tmp_path, victim).unlink()
        third = run_sweep(points, out_dir=tmp_path, jobs=1, resume=True)
        assert (third.ran, third.skipped) == (1, len(points) - 1)

    def test_resume_reruns_corrupt_artifacts(self, tmp_path):
        points = SMOKE_POINTS()
        run_sweep(points, out_dir=tmp_path, jobs=1)
        victim = artifact_path(tmp_path, points[0].hash())
        victim.write_text('{"schema": 1, "config"')  # interrupted write
        resumed = run_sweep(points, out_dir=tmp_path, jobs=1, resume=True)
        assert (resumed.ran, resumed.skipped) == (1, len(points) - 1)
        assert resumed.corrupt == [str(victim)]
        load_artifact(victim)  # healed

    def test_resume_warns_on_engine_version_mismatch(self, tmp_path):
        import repro

        points = SMOKE_POINTS()[:1]
        run_sweep(points, out_dir=tmp_path, jobs=1)
        path = artifact_path(tmp_path, points[0].hash())
        artifact = json.loads(path.read_text())
        assert artifact["meta"]["engine_version"] == repro.__version__
        artifact["meta"]["engine_version"] = "0.0.1"  # meta is unhashed
        path.write_text(json.dumps(artifact, sort_keys=True, indent=1) + "\n")

        messages = []
        resumed = run_sweep(
            points, out_dir=tmp_path, jobs=1, resume=True, progress=messages.append
        )
        assert resumed.skipped == 1  # still reused — but loudly
        assert any(
            "engine 0.0.1" in m and repro.__version__ in m for m in messages
        ), messages

    def test_resume_refreshes_renamed_tags(self, tmp_path):
        import dataclasses

        points = SMOKE_POINTS()[:1]
        run_sweep(points, out_dir=tmp_path, jobs=1)
        # The grid evolves its tag schema; the config (hence hash) is
        # unchanged, so resume must reuse the result under the NEW tags.
        renamed = [
            dataclasses.replace(p, tags={"workload": p.tags["series"]})
            for p in points
        ]
        resumed = run_sweep(renamed, out_dir=tmp_path, jobs=1, resume=True)
        assert (resumed.ran, resumed.skipped) == (0, 1)
        assert resumed.artifacts[0]["tags"] == {"workload": "lr/higgs@1/5000"}
        # ...and the refresh is persisted for the next resume.
        on_disk = load_artifact(artifact_path(tmp_path, points[0].hash()))
        assert on_disk["tags"] == {"workload": "lr/higgs@1/5000"}

    def test_resume_ignores_corrupt_files_outside_the_grid(self, tmp_path):
        points = SMOKE_POINTS()
        run_sweep(points, out_dir=tmp_path, jobs=1)
        # A stale corrupt leftover whose hash no current point produces:
        foreign = artifact_path(tmp_path, "f" * 16)
        foreign.write_text("{not json")
        resumed = run_sweep(points, out_dir=tmp_path, jobs=1, resume=True)
        # Nothing re-runs and the summary doesn't claim otherwise...
        assert (resumed.ran, resumed.skipped, resumed.corrupt) == (0, len(points), [])
        # ...and the foreign file is left untouched for the operator.
        assert foreign.read_text() == "{not json"

    def test_pool_matches_serial_byte_for_byte(self, tmp_path, pool_widths):
        points = SMOKE_POINTS()
        serial_dir, pool_dir = tmp_path / "serial", tmp_path / "pool"
        serial = run_sweep(points, out_dir=serial_dir, jobs=1)
        assert pool_widths == []
        pooled = run_sweep(points, out_dir=pool_dir, jobs=4)
        # One recording runs inline; the five replays share the pool.
        assert pool_widths == [4]
        assert serial.ran == pooled.ran == len(points)
        names = sorted(p.name for p in serial_dir.glob("*.json"))
        assert names == sorted(p.name for p in pool_dir.glob("*.json"))
        for name in names:
            a = json.loads((serial_dir / name).read_text())
            b = json.loads((pool_dir / name).read_text())
            assert strip_meta(a) == strip_meta(b), name
        # artifacts come back in point order regardless of pool scheduling
        assert [a["label"] for a in pooled.artifacts] == [p.label for p in points]

    def test_resume_requires_out_dir(self):
        with pytest.raises(ConfigurationError):
            run_sweep(SMOKE_POINTS(), resume=True)

    def test_in_memory_sweep_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run = run_sweep(SMOKE_POINTS()[:1])
        assert run.out_dir is None and run.ran == 1
        assert list(tmp_path.iterdir()) == []


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="self-killing worker patch requires the fork start method",
)


class TestResilientPool:
    """A pooled sweep survives worker-process death (ISSUE 6, satellite)."""

    @needs_fork
    def test_dead_worker_marks_point_failed_and_sweep_continues(
        self, tmp_path, monkeypatch, pool_widths
    ):
        import repro.sweep.orchestrator as orchestrator

        points = SMOKE_POINTS()
        victim = points[1].label
        real_run_task = orchestrator.run_task

        def killer_run_task(task):
            if task.point.label == victim:
                os.kill(os.getpid(), signal.SIGKILL)  # simulated OOM kill
            return real_run_task(task)

        monkeypatch.setattr(orchestrator, "run_task", killer_run_task)
        run = run_sweep(points, out_dir=tmp_path, jobs=2)
        assert pool_widths == [2]  # the victim is a phase-1 replay

        assert [f["label"] for f in run.failed] == [victim]
        reason = run.failed[0]["reason"]
        assert "died" in reason and "exit code" in reason
        assert run.failed[0]["config_hash"] == config_hash(points[1].config())
        # Every other point completed and was persisted.
        assert [a["label"] for a in run.artifacts] == [
            p.label for p in points if p.label != victim
        ]
        assert len(list(tmp_path.glob("*.json"))) == len(points) - 1

        # With the killer gone, resume re-runs exactly the dead point.
        monkeypatch.setattr(orchestrator, "run_task", real_run_task)
        resumed = run_sweep(points, out_dir=tmp_path, jobs=2, resume=True)
        assert resumed.failed == []
        assert resumed.ran == 1 and resumed.skipped == len(points) - 1
        assert [a["label"] for a in resumed.artifacts] == [p.label for p in points]

    @needs_fork
    def test_dead_recording_fails_its_replays_not_the_sweep(
        self, tmp_path, monkeypatch, pool_widths
    ):
        import repro.sweep.orchestrator as orchestrator

        # Two stat groups (seed is a statistical axis), so phase 0 has
        # two recordings and actually runs pooled; the smoke grid alone
        # is a single fingerprint, whose lone recording would run
        # inline — and an inline SIGKILL takes pytest with it.
        points = SMOKE_POINTS()
        points += [
            SweepPoint(
                experiment=p.experiment,
                label=f"{p.label},seed=7",
                config_kwargs={**p.config_kwargs, "seed": 7},
                tags=p.tags,
            )
            for p in points
        ]
        # Kill the phase-0 recording of the seed=7 stat group: all its
        # replay siblings must be marked failed, other groups finish.
        configs = [p.config() for p in points]
        doomed_stat = configs[-1].stat_hash()
        doomed = {
            p.label for p, c in zip(points, configs)
            if c.stat_hash() == doomed_stat and not c.timing_coupled
        }
        assert 0 < len(doomed) < len(points)
        real_run_task = orchestrator.run_task

        def killer_run_task(task):
            if task.mode == "record" and task.point.label in doomed:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run_task(task)

        monkeypatch.setattr(orchestrator, "run_task", killer_run_task)
        run = run_sweep(points, out_dir=tmp_path, jobs=2)
        assert pool_widths[0] == 2  # phase 0: two recordings
        assert {f["label"] for f in run.failed} == doomed
        assert sum("nothing to replay" in f["reason"] for f in run.failed) == len(doomed) - 1
        assert [a["label"] for a in run.artifacts] == [
            p.label for p in points if p.label not in doomed
        ]

    @needs_fork
    def test_worker_exception_still_aborts_the_pool(
        self, tmp_path, monkeypatch, pool_widths
    ):
        import repro.sweep.orchestrator as orchestrator

        points = SMOKE_POINTS()
        victim = points[2].label
        real_run_task = orchestrator.run_task

        def raising_run_task(task):
            if task.point.label == victim:
                raise ValueError("deliberate task failure")
            return real_run_task(task)

        monkeypatch.setattr(orchestrator, "run_task", raising_run_task)
        with pytest.raises(ValueError, match="deliberate task failure"):
            run_sweep(points, out_dir=tmp_path, jobs=2)
        assert pool_widths == [2]  # raised in a replay worker, not inline


class TestSweepCli:
    def test_sweep_then_resume(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["sweep", "--experiment", "smoke", "--jobs", "2",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "Smoke sweep" in stdout
        assert "6 point(s) run, 0 skipped" in stdout
        assert len(list(out.glob("*.json"))) == 6

        assert main(["sweep", "--experiment", "smoke", "--jobs", "2",
                     "--out", str(out), "--resume", "--no-report"]) == 0
        stdout = capsys.readouterr().out
        assert "0 point(s) run, 6 skipped" in stdout

    def test_sweep_substrate_auto_and_dry_run(self, tmp_path, capsys):
        # No flag selects the record/replay path: it is the only one.
        out = tmp_path / "artifacts"
        assert main(["sweep", "--experiment", "smoke", "--out", str(out),
                     "--dry-run"]) == 0
        stdout = capsys.readouterr().out
        assert "dry run" in stdout
        assert "unique stat fingerprints:     1" in stdout
        assert "would train: 1 exact point(s) and replay 5" in stdout
        assert not out.exists()  # a dry run runs (and writes) nothing

        assert main(["sweep", "--experiment", "smoke", "--out", str(out),
                     "--no-report"]) == 0
        stdout = capsys.readouterr().out
        assert "1 recorded, 5 replayed, 0 exact" in stdout
        assert len(list((out / "traces").glob("*.json"))) == 1

        assert main(["sweep", "--experiment", "smoke", "--out", str(out),
                     "--dry-run", "--resume"]) == 0
        stdout = capsys.readouterr().out
        assert "would train: 0 exact point(s) and replay 0" in stdout

        # Without --resume the same dry run must NOT claim the work is
        # done — a non-resume invocation re-runs every point.
        assert main(["sweep", "--experiment", "smoke", "--out", str(out),
                     "--dry-run"]) == 0
        stdout = capsys.readouterr().out
        assert "would train: 1 exact point(s) and replay 5" in stdout
        assert "reused only with --resume" in stdout

    def test_unknown_experiment_rejected(self):
        # Unknown names are rejected by the registry (with the known
        # list), not by argparse choices — building the parser must not
        # import every experiment module.
        with pytest.raises(ConfigurationError, match="unknown study"):
            main(["sweep", "--experiment", "fig99"])

    def test_nonpositive_max_epochs_rejected(self):
        # `max_epochs or default` grids would silently swallow 0.
        for bad in ("0", "-3"):
            with pytest.raises(SystemExit):
                main(["sweep", "--experiment", "smoke", "--max-epochs", bad])

    def test_registry_grids_are_well_formed(self):
        for name in ("fig8", "fig9", "fig11", "fig12", "smoke"):
            points = get_study(name).points(StudyContext(max_epochs=1.0))
            assert points, name
            for point in points:
                assert point.experiment == name
                assert isinstance(point.config(), TrainingConfig)
        # the headline grid: fig11 crosses the paper's ~300-worker ceiling
        fig11_faas = [
            p.config_kwargs["workers"]
            for p in get_study("fig11").points()
            if p.tags == {"series": "lr/higgs", "system": "faas"}
        ]
        assert max(fig11_faas) >= 512

    def test_fig9_panel_honours_explicit_worker_count(self):
        # panel_points(..., 50) must scale the panel UP past the
        # Table-4 default (10), not silently cap at it.
        from repro.experiments.fig9_end_to_end import panel_points

        points = panel_points("lr", "higgs", 50, max_epochs=1.0)
        assert points and all(
            p.config_kwargs["workers"] == 50 for p in points
        )
        assert all(p.tags["panel"] == "lr/higgs,W=50" for p in points)

    def test_grid_hashes_are_unique(self):
        for name in ("fig8", "fig9", "fig11", "fig12", "smoke"):
            points = get_study(name).points()
            hashes = [p.hash() for p in points]
            assert len(set(hashes)) == len(hashes), name


class TestTwoPhaseSweep:
    """Every sweep records once per fingerprint and replays the rest."""

    def test_auto_records_once_and_replays_the_rest(self, tmp_path):
        points = SMOKE_POINTS()  # 6 points (2 fault-injected), 1 statistical fingerprint
        run = run_sweep(points, out_dir=tmp_path)
        assert (run.stat_groups, run.recorded, run.replayed, run.exact_runs) == (
            1, 1, len(points) - 1, 0,
        )
        trace_files = list((tmp_path / "traces").glob("*.json"))
        assert len(trace_files) == 1
        stat_hash = points[0].config().stat_hash()
        assert trace_files[0].stem == stat_hash
        substrates = {a["meta"]["substrate"] for a in run.artifacts}
        assert substrates == {"record", "replay"}

    def test_auto_artifacts_match_exact_artifacts(self, tmp_path):
        # The oracle is one exact train() per point, outside any sweep.
        points = SMOKE_POINTS()
        auto = run_sweep(points, out_dir=tmp_path)
        for point, artifact in zip(points, auto.artifacts):
            exact = artifact_from_result(point, train(point.config()))
            assert strip_meta(exact) == strip_meta(artifact), point.label
        # Replayed points record (almost) zero statistical compute; the
        # single recording carries the numpy bill.
        replayed = [a for a in auto.artifacts if a["meta"]["substrate"] == "replay"]
        assert replayed and all(
            a["meta"]["compute_seconds"] < 0.05 for a in replayed
        )
        recorded = [a for a in auto.artifacts if a["meta"]["substrate"] == "record"]
        assert len(recorded) == 1 and recorded[0]["meta"]["compute_seconds"] > 0

    def test_resume_skips_both_phases(self, tmp_path):
        points = SMOKE_POINTS()
        run_sweep(points, out_dir=tmp_path)
        resumed = run_sweep(points, out_dir=tmp_path, resume=True)
        assert (resumed.ran, resumed.skipped) == (0, len(points))
        assert (resumed.recorded, resumed.replayed) == (0, 0)

    def test_resume_reuses_traces_after_artifact_loss(self, tmp_path):
        # Phase-0 work survives even if every artifact is lost: the
        # trace makes the whole re-run replay-speed.
        points = SMOKE_POINTS()
        run_sweep(points, out_dir=tmp_path)
        for path in tmp_path.glob("*.json"):
            path.unlink()
        resumed = run_sweep(points, out_dir=tmp_path, resume=True)
        assert (resumed.recorded, resumed.replayed) == (0, len(points))

    def test_without_resume_existing_traces_are_not_reused(self, tmp_path):
        # Trace reuse is the same act of trust as artifact reuse: both
        # are opt-in via resume, so a code change followed by a plain
        # (non-resume) sweep can never stamp stale trajectories into
        # fresh artifacts.
        points = SMOKE_POINTS()
        run_sweep(points, out_dir=tmp_path)
        trace_file = next((tmp_path / "traces").glob("*.json"))
        before = trace_file.read_text()
        rerun = run_sweep(points, out_dir=tmp_path)
        assert rerun.recorded == 1  # re-recorded, not reused
        assert json.loads(trace_file.read_text())["stat_hash"] in before

    def test_corrupt_trace_is_rerecorded(self, tmp_path):
        points = SMOKE_POINTS()
        run_sweep(points, out_dir=tmp_path)
        trace_file = next((tmp_path / "traces").glob("*.json"))
        trace_file.write_text("{broken")
        for path in tmp_path.glob("*.json"):
            path.unlink()
        messages = []
        rerun = run_sweep(
            points, out_dir=tmp_path, resume=True,
            progress=messages.append,
        )
        assert rerun.recorded == 1 and rerun.replayed == len(points) - 1
        assert any("corrupt trace" in m for m in messages)
        from repro.substrate import load_trace

        load_trace(trace_file)  # healed by the re-recording

    def test_unreplayable_trace_is_rerecorded_not_replayed(self, tmp_path):
        # Well-formed JSON whose epochs_per_round is 0: replaying it
        # used to spin the BSP loop forever.
        points = SMOKE_POINTS()
        run_sweep(points, out_dir=tmp_path)
        trace_file = next((tmp_path / "traces").glob("*.json"))
        planted = json.loads(trace_file.read_text())
        planted["ranks"][0]["epochs_per_round"] = 0
        trace_file.write_text(json.dumps(planted))
        for path in tmp_path.glob("*.json"):
            path.unlink()
        messages = []
        rerun = run_sweep(
            points, out_dir=tmp_path, resume=True, progress=messages.append,
        )
        assert rerun.recorded == 1 and rerun.replayed == len(points) - 1
        assert any("corrupt trace" in m for m in messages)
        from repro.substrate import load_trace

        assert load_trace(trace_file)["ranks"][0]["epochs_per_round"] > 0

    def test_replay_mode_refuses_timing_coupled_points(self):
        # "replay" used to be auto that refused timing-coupled points; it
        # had no caller, and now refuses them — and every other point —
        # as the unknown substrate it is ("exact" went the same way).
        with pytest.raises(ConfigurationError, match="unknown sweep substrate"):
            run_sweep([ASP_POINT], substrate="replay")

    def test_auto_falls_back_to_exact_for_timing_coupled_points(self, tmp_path):
        run = run_sweep([ASP_POINT], out_dir=tmp_path)
        assert (run.exact_runs, run.recorded, run.replayed) == (1, 0, 0)
        assert run.artifacts[0]["meta"]["substrate"] == "exact"
        assert not (tmp_path / "traces").exists()  # nothing replayable

    def test_unknown_substrate_rejected(self):
        for substrate in ("surrogate", "exact"):
            with pytest.raises(ConfigurationError, match="unknown sweep substrate"):
                run_sweep(SMOKE_POINTS(), substrate=substrate)

    def test_in_memory_two_phase_sweep(self):
        # out_dir=None keeps artifacts AND traces in memory only.
        run = run_sweep(SMOKE_POINTS())
        assert run.recorded == 1 and run.replayed == len(SMOKE_POINTS()) - 1
        assert run.traces_dir is None

    def test_schema_1_and_2_artifacts_are_corrupt_and_re_run(self, tmp_path):
        points = SMOKE_POINTS()[:1]
        run_sweep(points, out_dir=tmp_path)
        path = artifact_path(tmp_path, points[0].hash())
        current = json.loads(path.read_text())
        without_meta = {k: v for k, v in current.items() if k != "meta"}
        for schema in (1, 2):
            old = json.loads(path.read_text())
            old["schema"] = schema
            del old["result"]["events"]  # schemas 1 and 2 lacked the event summary...
            if schema == 1:  # ...and schema 1 the substrate ledger
                del old["meta"]["substrate"], old["meta"]["compute_seconds"]
            path.write_text(json.dumps(old, sort_keys=True, indent=1) + "\n")
            with pytest.raises(ArtifactError, match=f"schema {schema} is not 3"):
                load_artifact(path)

            messages = []
            resumed = run_sweep(
                points, out_dir=tmp_path, resume=True, progress=messages.append
            )
            assert (resumed.ran, resumed.skipped) == (1, 0)
            assert resumed.corrupt == [str(path)]
            assert any(f"corrupt artifact {path.name}" in m for m in messages), messages
            rewritten = load_artifact(path)
            assert rewritten["schema"] == 3
            assert {k: v for k, v in rewritten.items() if k != "meta"} == without_meta


class TestPlanSweep:
    def test_plan_counts_fingerprints_and_existing_work(self, tmp_path):
        points = SMOKE_POINTS()
        plan = plan_sweep(points, out_dir=tmp_path)
        assert plan["points"] == len(points)
        assert plan["unique_stat_fingerprints"] == 1
        assert plan["artifacts_present"] == 0 and plan["traces_present"] == 0
        assert plan["exact_trainings_needed"] == 1
        assert plan["replays_needed"] == len(points) - 1

        run_sweep(points[:2], out_dir=tmp_path)
        plan = plan_sweep(points, out_dir=tmp_path, resume=True)
        assert plan["artifacts_present"] == 2
        assert plan["traces_present"] == 1
        assert plan["pending_points"] == len(points) - 2
        assert plan["exact_trainings_needed"] == 0  # trace already exists
        assert plan["replays_needed"] == len(points) - 2

        # Without resume the real run reuses nothing, and the plan must
        # say so — while still reporting what sits on disk.
        plan = plan_sweep(points, out_dir=tmp_path, resume=False)
        assert plan["artifacts_present"] == 2 and plan["traces_present"] == 1
        assert plan["pending_points"] == len(points)
        assert plan["exact_trainings_needed"] == 1
        assert plan["replays_needed"] == len(points) - 1

    def test_plan_runs_nothing(self, tmp_path):
        plan_sweep(SMOKE_POINTS(), out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
        assert plan_sweep(SMOKE_POINTS())["out_dir"] is None

    @pytest.mark.parametrize("state", ["fresh", "two artifacts", "trace only"])
    def test_plan_equals_the_run_that_follows(self, tmp_path, state):
        # The plan and the run count one _classify() split; this pins
        # that they also agree on what resume may reuse.
        points = SMOKE_POINTS() + [ASP_POINT]
        resume = state != "fresh"
        if state == "two artifacts":
            run_sweep(points[:2], out_dir=tmp_path)
        elif state == "trace only":
            run_sweep(points, out_dir=tmp_path)
            for path in tmp_path.glob("*.json"):
                path.unlink()
            assert len(list((tmp_path / "traces").glob("*.json"))) == 1
        plan = plan_sweep(points, out_dir=tmp_path, resume=resume)
        run = run_sweep(points, out_dir=tmp_path, resume=resume)
        assert plan["exact_trainings_needed"] == run.recorded + run.exact_runs
        assert plan["replays_needed"] == run.replayed
        assert plan["pending_points"] == run.ran
        expected = {"fresh": (2, 5, 7), "two artifacts": (1, 4, 5), "trace only": (1, 6, 7)}
        assert (run.recorded + run.exact_runs, run.replayed, run.ran) == expected[state]


def test_smoke_sweep_is_deterministic_across_invocations(tmp_path):
    """Two fresh sweeps of the same grid agree exactly (no RNG leaks)."""
    a = run_sweep(SMOKE_POINTS(), out_dir=tmp_path / "a", jobs=1)
    b = run_sweep(SMOKE_POINTS(), out_dir=tmp_path / "b", jobs=1)
    for x, y in zip(a.artifacts, b.artifacts):
        assert strip_meta(x) == strip_meta(y)


def test_artifact_files_are_sorted_json(tmp_path):
    """Artifacts are sort_keys'd so diffs/dedup stay byte-stable."""
    run_sweep(SMOKE_POINTS()[:1], out_dir=tmp_path, jobs=1)
    path = next(iter(tmp_path.glob("*.json")))
    text = path.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"
