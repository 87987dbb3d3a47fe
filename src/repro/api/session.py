"""Session: the facade's durable home for runs, sweeps and comparisons.

A :class:`Session` is the rooted facade (:mod:`repro.api.report`: one
root, one sweep policy set at construction, traces under
``<root>/traces``) plus a default seed and the verbs scripts need:

* ``run(scenario)`` — one simulated training job, content-addressed
  under ``<root>/runs`` so repeating it costs a file read;
* ``sweep(study)`` — any registered study (or an ad-hoc list of
  scenarios/points) through the parallel, resumable, two-phase
  orchestrator, artifacts under ``<root>/<study>``;
* ``compare(scenarios)`` — a labelled head-to-head over the same run
  cache, rendered as a table.

``resume=True`` is the default: a second identical ``sweep()`` or
``run()`` call against the same root re-runs zero points. Pass
``root=None`` for a throwaway in-memory session (nothing persisted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.config import DEFAULT_SEED
from repro.core.config import TrainingConfig
from repro.core.results import RunResult
from repro.errors import ConfigurationError
from repro.experiments.report import format_table
from repro.api.report import ReportFacade
from repro.sweep.scenario import Scenario
from repro.sweep.artifacts import result_from_artifact
from repro.sweep.grid import SweepPoint
from repro.sweep.orchestrator import SweepRun, plan_sweep
from repro.sweep.study import Study, StudyContext, get_study


@dataclass
class StudyOutcome:
    """What ``Session.sweep`` returns: orchestration + aggregation."""

    run: SweepRun  # ran/skipped/recorded/replayed counters, artifact list
    result: Any  # the study's aggregate() output
    study: Study | None = None  # None for ad-hoc scenario sweeps

    @property
    def artifacts(self) -> list[dict]:
        return self.run.artifacts

    def report(self) -> str:
        """The study's paper-style report for this outcome."""
        if self.study is not None:
            return self.study.format_report(self.result)
        return _comparison_table("Ad-hoc sweep", self.result)


@dataclass
class Comparison:
    """Labelled head-to-head results from ``Session.compare``."""

    results: dict[str, RunResult] = field(default_factory=dict)

    def __getitem__(self, label: str) -> RunResult:
        return self.results[label]

    def report(self, title: str = "Comparison") -> str:
        return _comparison_table(
            title, [(label, r) for label, r in self.results.items()]
        )


def _comparison_table(title: str, rows: Iterable[tuple[str, RunResult]]) -> str:
    return format_table(
        title,
        ["scenario", "converged", "loss", "time(s)", "cost($)", "epochs"],
        [
            [label, r.converged, r.final_loss, r.duration_s, r.cost_total, r.epochs]
            for label, r in rows
        ],
    )


def _as_scenario(scenario) -> Scenario:
    if isinstance(scenario, Scenario):
        return scenario
    if isinstance(scenario, TrainingConfig):
        from repro.core.config import config_fingerprint

        return Scenario(config_fingerprint(scenario))
    if isinstance(scenario, dict):
        return Scenario(scenario)
    raise ConfigurationError(
        f"cannot interpret {type(scenario).__name__} as a Scenario"
    )


class Session(ReportFacade):
    """The rooted facade (``**policy``) + a default seed + the run/sweep/compare verbs."""

    def __init__(self, root=None, *, seed: int = DEFAULT_SEED, **policy) -> None:
        super().__init__(root, **policy)
        self.seed = seed

    def _resolve(
        self, study, max_epochs: float | None, seed: int | None
    ) -> tuple[Study | None, list[SweepPoint], str]:
        """Name / ``Study`` / scenario list -> (study, points, out name)."""
        if isinstance(study, str):
            study = get_study(study)
        if isinstance(study, Study):
            ctx = StudyContext(
                max_epochs=max_epochs, seed=self.seed if seed is None else seed
            )
            return study, study.points(ctx=ctx), study.name
        try:
            items = list(study)
        except TypeError:
            raise ConfigurationError(
                f"cannot sweep {type(study).__name__}: expected a study name, "
                "a Study, or a list of Scenario/SweepPoint"
            ) from None
        points = [
            p if isinstance(p, SweepPoint) else _as_scenario(p).point("adhoc")
            for p in items
        ]
        return None, points, "adhoc"

    # -- verbs ------------------------------------------------------------
    def run(self, scenario) -> RunResult:
        """One simulated training job, cached under ``<root>/runs``."""
        point = _as_scenario(scenario).point(experiment="runs")
        return result_from_artifact(self._train([point], "runs").artifacts[0])

    def sweep(
        self,
        study,
        *,
        max_epochs: float | None = None,
        seed: int | None = None,
    ) -> StudyOutcome:
        """Run a registered study — or an ad-hoc scenario list — end to end.

        ``study`` may be a study name (``"fig11"``), a
        :class:`~repro.sweep.study.Study`, or a list of
        :class:`Scenario` / :class:`SweepPoint`. Artifacts land under
        ``<root>/<study-name>`` (``<root>/adhoc`` for lists); with the
        session's default ``resume=True`` a repeated call re-runs zero
        points.
        """
        study, points, out_name = self._resolve(study, max_epochs, seed)
        sweep_run = self._train(points, out_name)
        if study is not None:
            result = study.aggregate(sweep_run.artifacts)
        else:
            result = [
                (a["label"], result_from_artifact(a)) for a in sweep_run.artifacts
            ]
        return StudyOutcome(run=sweep_run, result=result, study=study)

    def plan(self, study, *, max_epochs: float | None = None,
             seed: int | None = None) -> dict:
        """The ``--dry-run`` accounting for anything ``sweep`` accepts."""
        _, points, out_name = self._resolve(study, max_epochs, seed)
        return plan_sweep(
            points,
            out_dir=self._dir(out_name),
            traces_dir=self._dir("traces"),
            resume=self.resume,
        )

    def compare(self, scenarios) -> Comparison:
        """Run labelled scenarios head to head (through the run cache)."""
        if isinstance(scenarios, dict):
            labelled = [(label, _as_scenario(s)) for label, s in scenarios.items()]
        else:
            labelled = [
                (_as_scenario(s).describe(), _as_scenario(s)) for s in scenarios
            ]
        points = [s.point(experiment="runs") for _, s in labelled]
        sweep_run = self._train(points, "runs")
        # The orchestrator dedupes identical configs, so pair each label
        # with its artifact by config hash — never positionally (two
        # labels may legitimately name the same config).
        by_hash = {a["config_hash"]: a for a in sweep_run.artifacts}
        return Comparison(
            results={
                label: result_from_artifact(by_hash[point.hash()])
                for (label, _), point in zip(labelled, points)
            }
        )
