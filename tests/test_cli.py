"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import dataclasses
import json

import pytest

from repro.cli import add_config_flags, build_parser, config_from_args, main
from repro.core.config import TrainingConfig
from repro.errors import ConfigurationError
from repro.sweep import get_study, run_sweep


def train_subparser() -> argparse.ArgumentParser:
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0]
    return subparsers.choices["train"]


class TestParser:
    def test_train_parses_defaults(self):
        args = build_parser().parse_args(
            ["train", "--model", "lr", "--dataset", "higgs"]
        )
        assert args.command == "train"
        assert args.algorithm == "ma_sgd"
        assert args.workers == 10
        # Derived flags inherit the *config* defaults — the old
        # hand-written parser had drifted (lr 0.05, max_epochs 40).
        assert args.lr == TrainingConfig.__dataclass_fields__["lr"].default
        assert args.max_epochs == 60.0

    def test_train_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "bert", "--dataset", "higgs"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


# Like serve's orchestration knobs: observability of the run, not part
# of the workload's identity, so hand-written rather than a config field.
TRAIN_ORCHESTRATION_FLAGS = {"profile"}


class TestTrainFlagParity:
    """`train` flags are generated from TrainingConfig — pin the bijection."""

    def config_fields(self) -> dict[str, dataclasses.Field]:
        return {
            f.name: f for f in dataclasses.fields(TrainingConfig) if f.init
        }

    def flag_actions(self) -> dict[str, argparse.Action]:
        return {
            action.dest: action
            for action in train_subparser()._actions
            if action.dest != "help"
            and action.dest not in TRAIN_ORCHESTRATION_FLAGS
        }

    def test_orchestration_flags_present_and_disjoint(self):
        dests = {a.dest for a in train_subparser()._actions}
        assert TRAIN_ORCHESTRATION_FLAGS <= dests
        assert not (TRAIN_ORCHESTRATION_FLAGS & self.config_fields().keys())

    def test_field_flag_bijection(self):
        # Every init field has exactly one flag, and no flag exists
        # without a field — a new config field cannot silently miss the
        # CLI, and a CLI-only knob cannot silently miss the config.
        assert self.flag_actions().keys() == self.config_fields().keys()

    def test_flag_names_types_defaults_match_fields(self):
        actions = self.flag_actions()
        for name, field in self.config_fields().items():
            action = actions[name]
            flag = "--" + name.replace("_", "-")
            assert flag in action.option_strings, name
            kind = str(field.type).split("|")[0].strip()
            if kind == "bool":
                assert isinstance(action, argparse.BooleanOptionalAction), name
                assert action.default == field.default
            elif field.default is dataclasses.MISSING:
                assert action.required, name
            else:
                assert action.default == field.default, name
                assert action.type is {"int": int, "float": float, "str": str}[kind]

    def test_metadata_choices_reach_argparse(self):
        actions = self.flag_actions()
        for name, field in self.config_fields().items():
            choices = field.metadata.get("choices")
            if choices is not None:
                assert actions[name].choices == list(choices), name

    def test_config_from_args_round_trips_every_field(self):
        parser = argparse.ArgumentParser()
        add_config_flags(parser)
        args = parser.parse_args(
            ["--model", "lr", "--dataset", "higgs", "--algorithm", "admm",
             "--mttf-s", "120", "--channel-prestarted", "--data-scale", "5000"]
        )
        config = config_from_args(args)
        assert config == TrainingConfig(
            model="lr", dataset="higgs", algorithm="admm",
            mttf_s=120.0, channel_prestarted=True, data_scale=5000,
        )

    def test_optional_fields_keep_none_defaults(self):
        parser = argparse.ArgumentParser()
        add_config_flags(parser)
        args = parser.parse_args(["--model", "lr", "--dataset", "higgs"])
        assert args.loss_threshold is None
        assert args.mttf_s is None
        assert args.data_scale is None


class TestCommands:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "lr/higgs" in out
        assert "mobilenet/cifar10" in out

    def test_train_runs_and_reports(self, capsys):
        code = main(
            [
                "train", "--model", "lr", "--dataset", "higgs",
                "--algorithm", "admm", "--workers", "4",
                "--loss-threshold", "0.66", "--max-epochs", "40",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "converged" in out
        assert "cost breakdown" in out

    def test_train_exit_code_on_non_convergence(self, capsys):
        code = main(
            [
                "train", "--model", "lr", "--dataset", "higgs",
                "--algorithm", "ma_sgd", "--workers", "4",
                "--loss-threshold", "0.01", "--max-epochs", "2",
            ]
        )
        assert code == 1

    def test_train_profile_writes_artifacts(self, capsys, tmp_path):
        out = tmp_path / "prof"
        code = main(
            [
                "train", "--model", "lr", "--dataset", "higgs",
                "--algorithm", "admm", "--workers", "4",
                "--loss-threshold", "0.66", "--max-epochs", "40",
                "--profile", str(out),
            ]
        )
        assert code == 0
        assert (out / "train_profile.pstats").exists()
        table = (out / "train_profile.txt").read_text()
        assert "cumulative" in table  # pstats header made it out
        stats = json.loads((out / "train_engine_stats.json").read_text())
        assert len(stats["per_engine"]) == 1
        combined = stats["combined"]
        assert combined["events"] > 0
        assert combined["batches"] > 0
        assert combined["events"] >= combined["batches"]
        assert combined["top_callsites"]  # [qualname, count] pairs
        name, count = combined["top_callsites"][0]
        assert isinstance(name, str) and count > 0

    def test_estimate_command(self, capsys):
        code = main(
            [
                "estimate", "--model", "lr", "--dataset", "higgs",
                "--algorithm", "ma_sgd", "--lr", "0.05", "--threshold", "0.67",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "epochs" in out


def serve_subparser() -> argparse.ArgumentParser:
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0]
    return subparsers.choices["serve"]


# Orchestration knobs (where reports/baselines live, parallelism,
# resume, output format) are deliberately NOT part of the workload's
# identity, so they are hand-written flags, not ServiceConfig fields.
SERVE_ORCHESTRATION_FLAGS = {"out", "jobs", "resume", "json"}


class TestServeFlagParity:
    """`serve` flags are generated from ServiceConfig — pin the bijection."""

    def config_fields(self) -> dict[str, dataclasses.Field]:
        from repro.service.config import ServiceConfig

        return {
            f.name: f for f in dataclasses.fields(ServiceConfig) if f.init
        }

    def flag_actions(self) -> dict[str, argparse.Action]:
        return {
            action.dest: action
            for action in serve_subparser()._actions
            if action.dest != "help"
            and action.dest not in SERVE_ORCHESTRATION_FLAGS
        }

    def test_field_flag_bijection(self):
        assert self.flag_actions().keys() == self.config_fields().keys()

    def test_flag_names_types_defaults_match_fields(self):
        actions = self.flag_actions()
        for name, field in self.config_fields().items():
            action = actions[name]
            flag = "--" + name.replace("_", "-")
            assert flag in action.option_strings, name
            kind = str(field.type).split("|")[0].strip()
            if kind == "bool":
                assert isinstance(action, argparse.BooleanOptionalAction), name
                assert action.default == field.default
            elif field.default is dataclasses.MISSING:
                assert action.required, name
            else:
                assert action.default == field.default, name
                assert action.type is {"int": int, "float": float, "str": str}[kind]

    def test_metadata_choices_reach_argparse(self):
        actions = self.flag_actions()
        for name, field in self.config_fields().items():
            choices = field.metadata.get("choices")
            if choices is not None:
                assert actions[name].choices == list(choices), name

    def test_orchestration_flags_present_and_disjoint(self):
        dests = {a.dest for a in serve_subparser()._actions}
        assert SERVE_ORCHESTRATION_FLAGS <= dests
        assert not (SERVE_ORCHESTRATION_FLAGS & self.config_fields().keys())

    def test_serve_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--scheduler", "lifo"])


def infer_subparser() -> argparse.ArgumentParser:
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0]
    return subparsers.choices["infer"]


# Same split as serve: pipeline identity lives in ServingConfig,
# orchestration knobs are hand-written flags.
INFER_ORCHESTRATION_FLAGS = {"out", "jobs", "resume", "json"}


class TestInferFlagParity:
    """`infer` flags are generated from ServingConfig — pin the bijection."""

    def config_fields(self) -> dict[str, dataclasses.Field]:
        from repro.serving.config import ServingConfig

        return {
            f.name: f for f in dataclasses.fields(ServingConfig) if f.init
        }

    def flag_actions(self) -> dict[str, argparse.Action]:
        return {
            action.dest: action
            for action in infer_subparser()._actions
            if action.dest != "help"
            and action.dest not in INFER_ORCHESTRATION_FLAGS
        }

    def test_field_flag_bijection(self):
        assert self.flag_actions().keys() == self.config_fields().keys()

    def test_flag_names_types_defaults_match_fields(self):
        actions = self.flag_actions()
        for name, field in self.config_fields().items():
            action = actions[name]
            flag = "--" + name.replace("_", "-")
            assert flag in action.option_strings, name
            kind = str(field.type).split("|")[0].strip()
            if kind == "bool":
                assert isinstance(action, argparse.BooleanOptionalAction), name
                assert action.default == field.default
            elif field.default is dataclasses.MISSING:
                assert action.required, name
            else:
                assert action.default == field.default, name
                assert action.type is {"int": int, "float": float, "str": str}[kind]

    def test_metadata_choices_reach_argparse(self):
        actions = self.flag_actions()
        for name, field in self.config_fields().items():
            choices = field.metadata.get("choices")
            if choices is not None:
                assert actions[name].choices == list(choices), name

    def test_orchestration_flags_present_and_disjoint(self):
        dests = {a.dest for a in infer_subparser()._actions}
        assert INFER_ORCHESTRATION_FLAGS <= dests
        assert not (INFER_ORCHESTRATION_FLAGS & self.config_fields().keys())

    def test_infer_rejects_unknown_platform(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["infer", "--platform", "mainframe"])

    def test_infer_rejects_unknown_traffic(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["infer", "--traffic", "square_wave"])


class TestSubstrateChoices:
    """A sweep has one path — record once per fingerprint, replay the
    rest — and no front door offers another."""

    @pytest.mark.parametrize("command", ["sweep", "serve", "infer"])
    def test_no_substrate_or_traces_flag(self, command):
        subparsers = build_parser()._subparsers._group_actions[0]
        dests = {a.dest for a in subparsers.choices[command]._actions}
        assert not dests & {"substrate", "traces"}

    def test_replay_is_not_a_choice(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--experiment", "smoke", "--substrate", "replay"]
            )
        assert "unrecognized arguments: --substrate replay" in capsys.readouterr().err

    def test_run_sweep_refuses_exact(self):
        with pytest.raises(ConfigurationError, match=r"train\(point\.config\(\)\)"):
            run_sweep(get_study("smoke").points(), substrate="exact")

    def test_default_sweep_records_once_and_replays_the_rest(self):
        run = run_sweep(get_study("smoke").points())
        assert (run.recorded, run.replayed, run.exact_runs) == (1, 5, 0)


class TestPositiveCounts:
    """Counts of processes and scenarios are refused by argparse at 0."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--experiment", "smoke", "--jobs", "0"],
        ["serve", "--jobs", "0"],
        ["infer", "--jobs", "0"],
        ["fuzz", "--workers", "0"],
        ["fuzz", "--budget", "0"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:-1]))
    def test_zero_exits_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert f"argument {argv[-2]}: must be >= 1, got 0" in capsys.readouterr().err
