"""``repro.api`` — the public, documented way to script the simulator.

Three layers, smallest first:

* **One run.** :func:`run` trains a :class:`Scenario` (or a raw
  ``TrainingConfig``) and returns the :class:`RunResult`::

      from repro.api import Scenario, run

      result = run(Scenario.workload("lr", "higgs", workers=10))
      print(result.summary())

* **A session.** :class:`Session` owns an artifact root; its jobs and
  resume policy is set at construction, not per call. Its
  ``run``/``sweep``/``compare`` are content-addressed and resumable —
  repeating a call against the same root re-runs nothing::

      from repro.api import Scenario, Session

      s = Session("results", jobs=4)
      outcome = s.sweep("fig11")               # any registered study
      print(outcome.report())
      verdict = s.compare({
          "faas": Scenario.workload("lr", "higgs"),
          "iaas": Scenario.workload("lr", "higgs", system="pytorch"),
      })
      print(verdict.report())

* **A service.** :class:`Service` runs a whole multi-tenant workload —
  seeded Poisson or trace-driven arrivals, pluggable schedulers — on one
  shared engine with shared storage capacity, and reports p50/p99
  completion, $/job and contention slowdown per tenant. The same
  rooted facade as ``Session``: content-addressed, resume-by-default::

      from repro.api import Service, ServiceConfig

      svc = Service("results", arrivals=ServiceConfig(rate=6.0, tenants=12),
                    scheduler="fair_share")
      print(svc.run().report())

* **A serving pipeline.** :class:`ServingSession` owns the whole
  train-then-serve pipeline declared by one :class:`ServingConfig` —
  train the model, register it, replay seeded traffic against an
  autoscaled replica pool — and reports latency tails, cold-start
  fraction and end-to-end dollars. Content-addressed and
  resume-by-default like everything else::

      from repro.api import ServingConfig, ServingSession

      pipe = ServingSession("results", config=ServingConfig(
          platform="faas", traffic="bursty", autoscaler="concurrency"))
      print(pipe.run().report())

* **A new study.** Declare ``points(ctx)`` / ``aggregate`` /
  ``format_report`` on a class, decorate it with :func:`study`, and the
  name becomes available to ``Session.sweep`` and ``repro.cli sweep``
  alike (see ``examples/custom_study.py`` — a complete new experiment
  is ~30 lines).

All three facades share one root layout — artifacts under
``<root>/<study|runs|adhoc|baselines|models>``, reports under
``<root>/service`` and ``<root>/serving``, every replay trace under
``<root>/traces`` — so a trace recorded by one is replayed by the
others (:mod:`repro.api.report`).

The analytical toolkit the paper's Section-5.3 model uses is re-exported
here too (:class:`AnalyticalModel`, :class:`WorkloadParams`,
:class:`HybridModel`, :class:`SamplingEstimator`) so capacity-planning
scripts need no internal imports.
"""

from repro.analytics.casestudy import HybridModel
from repro.analytics.estimator import SamplingEstimator
from repro.analytics.model import AnalyticalModel, WorkloadParams
from repro.sweep.scenario import Scenario
from repro.api.service import Service, ServiceOutcome
from repro.api.serving import ServingOutcome, ServingSession
from repro.api.session import Comparison, Session, StudyOutcome
from repro.serving.config import ServingConfig
from repro.service.config import ServiceConfig
from repro.core.config import TrainingConfig
from repro.core.results import RunResult
from repro.experiments.workloads import WORKLOADS, Workload, get_workload
from repro.sweep.grid import SweepPoint, expand_grid
from repro.sweep.study import (
    Study,
    StudyContext,
    all_studies,
    get_study,
    study,
    study_names,
)

__all__ = [
    "AnalyticalModel",
    "Comparison",
    "HybridModel",
    "RunResult",
    "SamplingEstimator",
    "Scenario",
    "Service",
    "ServiceConfig",
    "ServiceOutcome",
    "ServingConfig",
    "ServingOutcome",
    "ServingSession",
    "Session",
    "Study",
    "StudyContext",
    "StudyOutcome",
    "SweepPoint",
    "TrainingConfig",
    "WORKLOADS",
    "Workload",
    "WorkloadParams",
    "all_studies",
    "compare",
    "expand_grid",
    "get_study",
    "get_workload",
    "run",
    "study",
    "study_names",
    "sweep",
]


def run(scenario) -> RunResult:
    """Train one scenario in a throwaway in-memory session."""
    return Session(None).run(scenario)


def sweep(study, *, jobs: int = 1, **kwargs) -> StudyOutcome:
    """Run a study (by name, object, or scenario list) in memory."""
    return Session(None, jobs=jobs).sweep(study, **kwargs)


def compare(scenarios) -> Comparison:
    """Run labelled scenarios head to head in memory."""
    return Session(None).compare(scenarios)
