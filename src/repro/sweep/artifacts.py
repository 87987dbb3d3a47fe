"""Per-point sweep artifacts: one JSON file per completed run.

Artifact schema (version 3)::

    {
      "schema": 3,
      "experiment": "fig11",
      "label": "faas,W=512",
      "tags": {"series": "lr/higgs", "system": "faas"},
      "config_hash": "<16 hex chars>",
      "config": { ...TrainingConfig init kwargs, defaults included... },
      "result": {
        "converged": bool,
        "final_loss": float,
        "duration_s": float,          # simulated wall-clock
        "cost_total": float,
        "cost_breakdown": {component: dollars},
        "epochs": float,
        "comm_rounds": int,
        "checkpoints": int,
        "final_accuracy": float | null,
        "time_breakdown": {category: seconds},   # Figure-10 style
        "history": [[time_s, epoch, loss, worker], ...],
        "events": {                              # reliability story
          "checkpoints": int, "lifetime_reinvocations": int,
          "crashes": int, "reincarnations": int, "restarts": int,
          "recovery_checkpoints": int, "storage_errors": int,
          "storage_retries": int, "storage_backoff_s": float,
          "storage_exhaustions": int, "gc_collected_keys": int
        }
      },
      "meta": {
        "wall_seconds": float,        # host wall-clock; NOT deterministic
        "engine_version": "1.2.0",
        "substrate": "exact" | "record" | "replay",  # which backend ran it
        "compute_seconds": float      # host seconds of statistical numpy work
      }
    }

Everything outside ``meta`` is a pure function of the config, so two
artifacts for the same point — serial or across the pool boundary,
exact or replayed from a recorded trace — must be byte-identical after
dropping ``meta`` (the determinism tests assert exactly that).

``result.events`` is the fault-plane event summary: counts of
*simulated* events, hence deterministic and part of the result, not the
meta. Version 3 is the only schema that loads; a file of an older one
(no ``meta.substrate`` / ``meta.compute_seconds``, no ``result.events``)
is corrupt, so a resumed sweep re-runs its point and overwrites it.

Writing, reading, validation and the corrupt-file policy live in
:mod:`repro.store`; this module declares the artifact :data:`ARTIFACT`
kind and binds the store's verbs to it.
"""

from __future__ import annotations

from functools import partial

from repro import __version__ as repro_version
from repro import store
from repro.core.config import TrainingConfig
from repro.core.results import LossPoint, RunResult
from repro.simulation.tracing import TimeBreakdown
from repro.sweep.grid import SweepPoint, config_fingerprint, fingerprint_hash

ARTIFACT_SCHEMA_VERSION = 3


class ArtifactError(ValueError):
    """A sweep artifact is corrupt, partial, or from another schema."""


ARTIFACT = store.Kind(
    name="artifact",
    error=ArtifactError,
    schema=ARTIFACT_SCHEMA_VERSION,
    shape={
        "experiment": str, "label": str, "config_hash": str,
        "tags": dict, "config": dict, "result": dict, "meta": dict,
    },
    key="config_hash",
    fingerprint="config",
)


def artifact_from_result(
    point: SweepPoint,
    result: RunResult,
    wall_seconds: float = 0.0,
    substrate: str = "exact",
    compute_seconds: float = 0.0,
) -> dict:
    """Serialize one completed run as a schema-3 artifact dict."""
    fingerprint = config_fingerprint(result.config)
    return {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "experiment": point.experiment,
        "label": point.label,
        "tags": dict(point.tags),
        "config_hash": fingerprint_hash(fingerprint),
        "config": fingerprint,
        "result": {
            "converged": result.converged,
            "final_loss": result.final_loss,
            "duration_s": result.duration_s,
            "cost_total": result.cost_total,
            "cost_breakdown": dict(result.cost_breakdown),
            "epochs": result.epochs,
            "comm_rounds": result.comm_rounds,
            "checkpoints": result.checkpoints,
            "final_accuracy": result.final_accuracy,
            "time_breakdown": result.breakdown.as_dict(),
            "history": [
                [p.time_s, p.epoch, p.loss, p.worker] for p in result.history
            ],
            "events": dict(result.events),
        },
        "meta": {
            "wall_seconds": round(wall_seconds, 3),
            # Which simulator produced this result. The config hash
            # cannot see code changes, so resume surfaces a warning
            # when it reuses artifacts from another engine version.
            "engine_version": repro_version,
            # Which statistical backend ran the point, and how many
            # host seconds of real numpy work it cost — the sweep's
            # wall-clock ledger (replayed points record ~0 here).
            "substrate": substrate,
            "compute_seconds": round(compute_seconds, 3),
        },
    }


def result_from_artifact(artifact: dict) -> RunResult:
    """Rebuild a :class:`RunResult` view from an artifact.

    Per-worker traces are not persisted, so ``per_worker`` is empty;
    everything the experiment aggregators/report renderers consume is
    reconstructed exactly.
    """
    res = artifact["result"]
    breakdown = TimeBreakdown()
    for category, seconds in res["time_breakdown"].items():
        breakdown.add(category, seconds)
    return RunResult(
        config=TrainingConfig(**artifact["config"]),
        converged=res["converged"],
        final_loss=res["final_loss"],
        duration_s=res["duration_s"],
        cost_total=res["cost_total"],
        cost_breakdown=dict(res["cost_breakdown"]),
        epochs=res["epochs"],
        comm_rounds=res["comm_rounds"],
        history=[
            LossPoint(time_s, epoch, loss, worker)
            for time_s, epoch, loss, worker in res["history"]
        ],
        breakdown=breakdown,
        checkpoints=res["checkpoints"],
        final_accuracy=res["final_accuracy"],
        meta={"events": dict(res["events"])},
    )


artifact_path = store.document_path
write_artifact = partial(store.put, ARTIFACT)  # (out_dir, artifact) -> Path
validate_artifact = partial(store.validate, ARTIFACT)  # (artifact, expected_hash=None)
load_artifact = partial(store.get, ARTIFACT)  # (path, expected_hash=None)
#: ``(hash -> artifact, corrupt paths)``; the orchestrator re-runs — and
#: overwrites — the corrupt ones that shadow a point of its grid.
scan_artifacts = partial(store.scan, ARTIFACT)  # (out_dir)
