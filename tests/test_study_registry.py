"""The Study registry: discovery, derived kinds, the CLI catalog.

ISSUE 5 acceptance: every experiment module is a registered study
(>= 14 names beyond smoke), each grid study's points build valid,
hash-unique configs, and ``repro.cli sweep --list`` prints the whole
catalog with grid/fingerprint accounting.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

import pins
import repro.experiments
from repro.cli import main
from repro.core.config import TrainingConfig, config_validity_error
from repro.errors import ConfigurationError
from repro.experiments.workloads import WORKLOADS
from repro.sweep.study import (
    Claim,
    Study,
    StudyContext,
    all_studies,
    get_study,
    register,
    study,
)

# The full catalog an ISSUE-5 registry must expose.
EXPECTED_STUDIES = {
    "ablations", "cost_sanity", "datasets", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "figR", "figS", "figV", "multitenancy",
    "multitenancy_analytical", "smoke",
    "table1", "table2", "table3", "table5", "table6",
}

# The studies that state the paper's findings as claims (CI's
# paper-claims job sweeps each one).
CLAIMED_STUDIES = {
    "ablations", "cost_sanity", "datasets", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15", "figS", "figV",
    "table1", "table2", "table3", "table5", "table6",
}

# The contexts a grid may depend on.
CONTEXTS = (StudyContext(), StudyContext(mega=True), StudyContext(max_epochs=1.0))


@pins.register("registry.grid")
def grid_digest() -> dict:
    rows = [
        [name, ctx.mega, ctx.max_epochs,
         [(p.experiment, p.label, p.hash(), sorted(p.tags.items()))
          for p in entry.points(ctx=ctx)]]
        for name, entry in all_studies().items()
        for ctx in CONTEXTS
    ]
    return {"rows": len(rows), "points": sum(len(row[3]) for row in rows),
            "sha256_16": pins.digest(rows)[:16]}


class TestRegistry:
    def test_every_experiment_module_is_registered(self):
        names = set(all_studies())
        assert EXPECTED_STUDIES <= names
        assert len(names - {"smoke"}) >= 14

    def test_unknown_study_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown study"):
            get_study("fig99")

    def test_duplicate_registration_rejected(self):
        get_study("smoke")  # force discovery first
        with pytest.raises(ConfigurationError, match="already registered"):

            @study("smoke")
            class Duplicate:
                """duplicate"""

                points = staticmethod(lambda ctx: [])
                aggregate = staticmethod(lambda a: a)
                report = ()

    def test_grid_studies_build_valid_unique_configs(self):
        for name, entry in all_studies().items():
            points = entry.points(StudyContext(max_epochs=1.0))
            if entry.kind == "direct":
                assert points == []
                continue
            assert points, name
            hashes = set()
            for point in points:
                assert point.experiment == name
                assert isinstance(point.config(), TrainingConfig)
                hashes.add(point.hash())
            assert len(hashes) == len(points), f"{name}: colliding configs"
            # Valid means trainable: no point of any context the digest
            # walks may fail the feasibility checks a run makes first.
            for ctx in CONTEXTS:
                for point in entry.points(ctx=ctx):
                    assert config_validity_error(point.config_kwargs) is None, point.label

    def test_grid_digest_is_pinned(self):
        # Every (experiment, label, config hash, tags) of all 23 studies
        # under the three contexts a grid may depend on. A refactor of
        # how grids are spelled must leave this digest alone; a change
        # that moves it on purpose re-pins it and says which points moved.
        assert grid_digest() == pins.pinned("registry.grid")

    def test_table4_fields_match_the_registry(self):
        # Scenario.workload is the one Table-4 -> kwargs mapping; a point
        # on a registry workload that runs another batch shape, k or
        # batch floor says so in its module and is counted here.
        drift = Counter()
        for name, entry in all_studies().items():
            for point in entry.points():
                config = point.config()
                workload = WORKLOADS.get(f"{config.model}/{config.dataset}")
                if workload is None:
                    continue
                for field in ("batch_size", "batch_scope", "k", "min_local_batch"):
                    if getattr(config, field) != getattr(workload, field):
                        drift[name, field] += 1
        assert drift == {
            ("table1", "k"): 3,  # the k=1000 large-model k-means row
            # Extension studies with their own scaled-down job classes.
            ("figS", "batch_size"): 2,
            ("figV", "batch_size"): 1,
            ("multitenancy", "batch_size"): 1,
        }

    def test_experiment_modules_never_import_the_orchestrator(self):
        # Experiment modules are grids, aggregators and renderers; the
        # run*() shims that executed them are gone and must not grow
        # back. Nor may a second spelling of a grid: points are Scenario
        # expressions, and Table 4 is read through Scenario.workload.
        offenders = []
        for path in sorted(Path(repro.experiments.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("SweepPoint", "expand_grid", "get_workload")
                    and path.name != "workloads.py"
                ):
                    offenders.append(f"{path.name} calls {node.func.id}")
                if isinstance(node, ast.ImportFrom):
                    imported = [node.module or ""] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                elif isinstance(node, ast.Import):
                    imported = [alias.name for alias in node.names]
                else:
                    continue
                if "repro.sweep.orchestrator" in imported:
                    offenders.append(path.name)
        assert offenders == []

    def test_direct_studies_aggregate_without_artifacts(self):
        # The cheap analytical ones; table3/table6/datasets run real
        # engine probes and are covered by test_experiments.py.
        for name in ("fig14", "fig15", "table2", "multitenancy_analytical"):
            entry = get_study(name)
            result = entry.aggregate([])
            assert result, name
            assert entry.format_report(result), name


class TestStudyDecorator:
    @pytest.fixture
    def probe(self, monkeypatch):
        """What the decorator registers, caught instead of registered."""
        import repro.sweep.study as study_module

        caught = []
        monkeypatch.setattr(study_module, "register", caught.append)
        return caught

    def test_description_defaults_to_docstring(self, probe):
        @study("docstring-probe")
        class Probe:
            """first line wins

            not this one.
            """

            points = staticmethod(lambda ctx: [])
            aggregate = staticmethod(lambda a: a)
            report = ()

        assert probe[0].description == "first line wins"
        assert probe[0].claims == ()

    def test_direct_study_defaults_to_empty_grid(self, probe):
        claim = Claim("directless.holds", "Fig. 0", lambda result: None)

        @study("directless", description="computed")
        class Directless:
            aggregate = staticmethod(lambda a: "result")
            report = ()
            claims = (claim,)

        assert probe[0].points(StudyContext(max_epochs=1.0)) == []
        assert probe[0].claims == (claim,)
        # kind follows from the declaration: no points -> direct.
        assert probe[0].kind == "direct"
        assert Study("x", "d", lambda ctx: [], lambda a: a, str).kind == "grid"

    def test_a_report_has_one_spelling(self, probe):
        # A study states its report as Table/Series parts; a class that
        # declares none, or renders its own, is refused by name.
        with pytest.raises(ConfigurationError, match="study 'reportless' declares no report"):

            @study("reportless", description="no report")
            class Reportless:
                aggregate = staticmethod(lambda a: [])

        with pytest.raises(ConfigurationError, match="study 'bespoke' defines format_report"):

            @study("bespoke", description="its own renderer")
            class Bespoke:
                aggregate = staticmethod(lambda a: [])
                report = ()
                format_report = staticmethod(str)

        assert probe == []

    def test_register_is_importable_and_guarded(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register(get_study("smoke"))


class TestCliCatalog:
    def test_sweep_list_prints_every_study(self, capsys):
        assert main(["sweep", "--list", "--max-epochs", "1"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_STUDIES:
            assert name in out, name
        # the --dry-run accounting: grid sizes + unique fingerprints
        header = out.splitlines()[0]
        assert "points" in header and "stat-fp" in header
        smoke_line = next(line for line in out.splitlines() if line.startswith("smoke"))
        assert " 6 " in smoke_line and " 1 " in smoke_line

    def test_sweep_without_experiment_or_list_errors(self, capsys):
        assert main(["sweep"]) == 2
        assert "--list" in capsys.readouterr().err

    def test_direct_study_through_the_sweep_cli(self, tmp_path, capsys):
        # A "direct" study rides the same CLI: zero points, full report.
        out = tmp_path / "artifacts"
        assert main(["sweep", "--experiment", "table2", "--out", str(out),
                     "--resume", "--jobs", "2"]) == 0
        stdout = capsys.readouterr().out
        assert "Table 2" in stdout
        assert "0 point(s) run" in stdout

    def test_claim_ids_are_unique_and_cited(self):
        claims = [(name, c) for name, e in all_studies().items() for c in e.claims]
        ids = [c.id for _, c in claims]
        assert len(ids) == len(set(ids))
        for name, claim in claims:
            assert claim.id.startswith(f"{name}."), claim.id
            assert claim.cite.strip(), claim.id
        assert {name for name, _ in claims} == CLAIMED_STUDIES

    @pytest.mark.parametrize(
        "name", ["ablations", "datasets", "fig14", "fig15", "table2", "table3", "table6"]
    )
    def test_claims_hold_through_the_sweep_cli(self, name, tmp_path, capsys):
        # The direct studies and ablations (seconds each), checked the way
        # CI's paper-claims job checks every study: default grid, the CLI.
        assert main(["sweep", "--experiment", name, "--out", str(tmp_path),
                     "--jobs", "2", "--no-report"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("claim ")]
        assert len(lines) == len(get_study(name).claims)
        assert all(line.endswith(": holds") for line in lines), lines

    def test_claim_verdicts_set_the_exit_code(self, monkeypatch, tmp_path, capsys):
        import repro.sweep.study as study_module

        def run(claim, *flags):
            entry = Study("claim-probe", "probe", None, lambda artifacts: 3, str,
                          claims=(claim,))
            monkeypatch.setitem(study_module._REGISTRY, entry.name, entry)
            code = main(["sweep", "--experiment", entry.name, "--out",
                         str(tmp_path), "--no-report", *flags])
            return code, capsys.readouterr().out

        def check(result):
            return None if result > 5 else f"result {result} is not above 5"

        code, out = run(Claim("probe.above_5", "Fig. 0", check))
        assert code == 1
        assert "claim probe.above_5 [Fig. 0]: FAILED: result 3 is not above 5" in out
        code, out = run(Claim("probe.above_5", "Fig. 0", check, deviation="known"))
        assert code == 0
        assert "deviation (result 3 is not above 5): known" in out
        code, out = run(Claim("probe.above_5", "Fig. 0", check), "--max-epochs", "1")
        assert code == 0
        assert "1 claim(s) not checked" in out and "FAILED" not in out

    def test_multitenancy_analytical_through_the_sweep_cli(self, capsys):
        # The closed-form study stays a zero-point direct study; its
        # simulated sibling ("multitenancy") is an ordinary grid study
        # covered by test_grid_studies_build_valid_unique_configs.
        assert main(["sweep", "--experiment", "multitenancy_analytical",
                     "--no-report"]) == 0
        assert "0 point(s) run" in capsys.readouterr().out
