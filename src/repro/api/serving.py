"""ServingSession: the facade for train-then-serve pipelines.

Shaped like :class:`repro.api.Service`: a :class:`ServingSession` owns
a report root and runs the whole pipeline declared by one
:class:`~repro.serving.config.ServingConfig` —

1. train the model (an ordinary content-addressed sweep artifact under
   ``<root>/models``, shared with any other sweep against that root);
2. register it into the serving tier (size → load time, final loss →
   quality tag, training cost → the end-to-end dollar axis);
3. replay the config's seeded traffic against the autoscaled replica
   pool and persist the serving report.

Everything is content-addressed and resume-by-default: the report is
keyed by the hash of the full ServingConfig, so a second ``run()``
against the same root loads the persisted report and re-simulates
nothing. ``repro.cli infer`` is a thin wrapper over this class.
"""

from __future__ import annotations

from repro import store
from repro.api.report import ReportFacade, ReportOutcome
from repro.core.config import TrainingConfig
from repro.serving.config import ServingConfig, serving_fingerprint, serving_hash
from repro.serving.metrics import (
    SERVING_REPORT,
    build_serving_report,
    format_serving_report,
)
from repro.serving.registry import ModelRegistry
from repro.serving.runtime import ServingRuntime
from repro.sweep.grid import SweepPoint


class ServingOutcome(ReportOutcome):
    """What ``ServingSession.run`` returns (scorecard + end-to-end summary)."""

    _format = staticmethod(format_serving_report)

    @property
    def ran_requests(self) -> int:
        return self.ran

    @property
    def end_to_end_dollars(self) -> float:
        return self.data["end_to_end_dollars"]


class ServingSession(ReportFacade):
    """The rooted facade (``**policy``) + one declarative train-then-serve pipeline."""

    _config_param = "config"

    def __init__(self, root=None, *, config: ServingConfig, **policy) -> None:
        super().__init__(root, **policy)
        self.config = config

    def _model_artifact(self) -> dict:
        """The training leg, as a persisted (or in-memory) artifact."""
        kwargs = self.config.train_kwargs()
        training = TrainingConfig(**kwargs)
        point = SweepPoint(
            "serving",
            f"model {training.model}/{training.dataset},W={training.workers}",
            config_kwargs=kwargs,
            tags={"series": "serving"},
        )
        return self._train([point], "models").artifacts[0]

    # -- the verb ----------------------------------------------------------
    def run(self) -> ServingOutcome:
        """Train, register, serve (or load the persisted report)."""
        fingerprint = serving_fingerprint(self.config)
        pipeline_hash = serving_hash(self.config)

        def simulate() -> dict:
            entry = ModelRegistry().register_artifact(
                "pipeline", self._model_artifact()
            )
            records, pool = ServingRuntime(self.config, entry).run()
            return build_serving_report(
                pipeline_hash, fingerprint, entry.as_dict(), records, pool
            )

        report, path, reused = store.load_or_run(
            SERVING_REPORT, self._dir("serving"), pipeline_hash, simulate,
            self.resume, self.progress,
        )
        return ServingOutcome(report, 0 if reused else len(report["requests"]), path)
