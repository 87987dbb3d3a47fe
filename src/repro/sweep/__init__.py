"""Process-parallel sweep orchestration with resumable JSON artifacts.

A sweep is a grid of :class:`~repro.core.config.TrainingConfig` points
fanned out over a ``multiprocessing`` pool of deterministic single-run
workers. Every completed point is persisted as one JSON artifact named
by the config's content hash, so an interrupted sweep resumes by
skipping the hashes already on disk (``repro.cli sweep --resume``).

Layout:

* :mod:`repro.sweep.grid` — declarative grid specs, ``SweepPoint``,
  config fingerprinting/hashing.
* :mod:`repro.sweep.scenario` — ``Scenario``, the immutable builder
  every study spells its grid with (``workload`` / ``vary`` / ``grid``
  / ``named`` / ``point``); ``repro.api`` re-exports it.
* :mod:`repro.sweep.artifacts` — the per-point JSON schema, declared
  as a :mod:`repro.store` document kind (atomic writes, validation and
  corrupt-artifact detection live in the store).
* :mod:`repro.sweep.orchestrator` — the pool fan-out / resume loop.
  Every sweep is two-phase: one exact (recording) training per unique
  statistical fingerprint, replays for the rest (see
  :mod:`repro.substrate`).
* :mod:`repro.sweep.study` — the Study protocol (``points(ctx)`` /
  ``aggregate`` / ``format_report``), the ``@study`` registration
  decorator and auto-discovery over :mod:`repro.experiments`; every
  figure/table/extension is a registered study the CLI and
  :mod:`repro.api` run by name.
"""

from repro.sweep.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    artifact_from_result,
    load_artifact,
    result_from_artifact,
    scan_artifacts,
    write_artifact,
)
from repro.sweep.grid import SweepPoint, config_fingerprint, config_hash, expand_grid
from repro.sweep.orchestrator import SweepRun, plan_sweep, run_resilient_pool, run_sweep
# NOTE: the ``@study`` decorator itself is deliberately NOT re-exported
# here — ``repro.sweep.study`` must keep naming the submodule. Import
# the decorator from ``repro.api`` or ``repro.sweep.study``.
from repro.sweep.study import (
    Study,
    StudyContext,
    all_studies,
    get_study,
    study_names,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactError",
    "Study",
    "StudyContext",
    "SweepPoint",
    "SweepRun",
    "all_studies",
    "get_study",
    "plan_sweep",
    "study_names",
    "artifact_from_result",
    "config_fingerprint",
    "config_hash",
    "expand_grid",
    "load_artifact",
    "result_from_artifact",
    "run_resilient_pool",
    "run_sweep",
    "scan_artifacts",
    "write_artifact",
]
