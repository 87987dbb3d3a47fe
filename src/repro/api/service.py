"""Service: the facade for multi-tenant workloads, shaped like Session.

A :class:`Service` owns a report root and a sweep policy and exposes
the service verbs::

    from repro.api import Scenario, Service, ServiceConfig

    svc = Service("results", arrivals=ServiceConfig(rate=6.0, tenants=12),
                  scheduler="fair_share")
    svc.submit(Scenario.workload("lr", "rcv1").tenant("acme", priority=1.0),
               arrival_s=30.0)
    outcome = svc.run()
    print(outcome.report())

Like ``Session``, everything is content-addressed and resume-by-default:
the report is keyed by a hash of the *resolved workload* (every request's
arrival instant, tenant and full training config, plus the scheduler and
concurrency limit), so a second ``run()`` against the same root loads
the persisted report and re-runs zero jobs. Isolated baselines are
ordinary sweep artifacts under ``<root>/baselines`` (with replay traces
under ``<root>/traces``), shared with any other sweep against that root.
"""

from __future__ import annotations

import os

from repro import store
from repro.core.config import TrainingConfig
from repro.errors import ConfigurationError
from repro.api.report import ReportFacade, ReportOutcome
from repro.sweep.scenario import Scenario
from repro.service.arrivals import JobRequest, build_requests
from repro.service.config import ServiceConfig, service_fingerprint
from repro.service.metrics import (
    SERVICE_REPORT,
    build_report,
    format_service_report,
)
from repro.service.runtime import BaselineProvider, ServiceRuntime
from repro.service.schedulers import make_scheduler
from repro.substrate.traces import scan_traces
from repro.sweep.artifacts import scan_artifacts
from repro.sweep.grid import config_hash
from repro.utils.hashing import fingerprint_hash


class ServiceOutcome(ReportOutcome):
    """What ``Service.run`` returns (per-job table + service scorecard)."""

    _format = staticmethod(format_service_report)

    @property
    def ran_jobs(self) -> int:
        return self.ran

    @property
    def tenants(self) -> list[dict]:
        return self.data["tenants"]


def _workload_fingerprint(
    scheduler: str, max_concurrent: int, requests: list[JobRequest]
) -> dict:
    """The resolved workload, for content addressing.

    Hashing the request list (not the generating ServiceConfig) means a
    trace file edit, a submitted scenario, or a scheduler change each
    re-key the report, while re-generating the identical workload from
    a different spelling resumes cleanly.
    """
    return {
        "scheduler": scheduler,
        "max_concurrent": max_concurrent,
        "requests": [
            {
                "job": r.job,
                "tenant": r.tenant,
                "arrival_s": r.arrival_s,
                "priority": r.priority,
                "config": {k: r.config_kwargs[k] for k in sorted(r.config_kwargs)},
            }
            for r in requests
        ],
    }


class Service(ReportFacade):
    """The rooted facade (``**policy``) + scheduler + arrivals + the submit/run verbs."""

    _config_param = "arrivals"

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        *,
        arrivals: ServiceConfig | None = None,
        scheduler: str | None = None,
        max_concurrent: int | None = None,
        **policy,
    ) -> None:
        super().__init__(root, **policy)
        self.config = arrivals
        # Explicit arguments win; an arrivals config fills the gaps.
        self.scheduler = scheduler or (arrivals.scheduler if arrivals else "fifo")
        self.max_concurrent = (
            max_concurrent
            if max_concurrent is not None
            else (arrivals.max_concurrent if arrivals else 4)
        )
        # ServiceConfig's rules, applied to the explicit arguments too.
        ServiceConfig(scheduler=self.scheduler, max_concurrent=self.max_concurrent)
        self._submitted: list[JobRequest] = []

    # -- workload assembly -------------------------------------------------
    def submit(
        self,
        scenario,
        *,
        arrival_s: float = 0.0,
        job: str | None = None,
    ) -> JobRequest:
        """Queue one scenario as a service job (on top of any arrivals).

        Tenant identity and priority come from ``Scenario.tenant(...)``
        tags; an untagged scenario bills to the ``"default"`` account.
        """
        if not isinstance(scenario, Scenario):
            scenario = Scenario(dict(scenario))
        request = JobRequest(
            job=job or f"s{len(self._submitted):03d}",
            tenant=scenario.tags.get("tenant", "default"),
            arrival_s=float(arrival_s),
            config_kwargs=dict(scenario.kwargs),
            priority=float(scenario.tags.get("priority", 0.0)),
        )
        self._submitted.append(request)
        return request

    def requests(self) -> list[JobRequest]:
        """The resolved workload: generated arrivals + submissions."""
        generated = build_requests(self.config) if self.config is not None else []
        requests = sorted(
            generated + self._submitted, key=lambda r: (r.arrival_s, r.job)
        )
        if not requests:
            raise ConfigurationError(
                "service has no jobs: pass arrivals=ServiceConfig(...) "
                "or submit() at least one scenario"
            )
        jobs = [r.job for r in requests]
        if len(set(jobs)) != len(jobs):
            raise ConfigurationError("service workload has duplicate job ids")
        return requests

    # -- internals ---------------------------------------------------------
    def _baselines(self, requests: list[JobRequest]) -> BaselineProvider:
        """An isolated-run provider, primed from disk when rooted.

        The distinct submitted configs go through the ordinary sweep
        orchestrator first (parallel, resumable, trace-recording), so
        baselines are shared artifacts; only scheduler-shrunk variants
        are computed lazily inside the service run.
        """
        provider = BaselineProvider(artifacts_dir=self._dir("baselines"))
        if self.root is not None:
            configs = {}
            for request in requests:
                config = TrainingConfig(**request.config_kwargs)
                configs.setdefault(config_hash(config), config)
            self._train(
                [BaselineProvider.baseline_point(c) for c in configs.values()],
                "baselines",
            )
            # A scan, not _train's return: earlier runs' providers also
            # left scheduler-shrunk variants here.
            provider.prime(scan_artifacts(self._dir("baselines"))[0])
            provider.prime_traces(scan_traces(self._dir("traces"))[0])
        return provider

    # -- the verb ----------------------------------------------------------
    def run(self) -> ServiceOutcome:
        """Simulate the workload (or load the persisted report)."""
        requests = self.requests()
        fingerprint = _workload_fingerprint(
            self.scheduler, self.max_concurrent, requests
        )
        if self.config is not None:
            fingerprint["service"] = service_fingerprint(self.config)
        workload_hash = fingerprint_hash(fingerprint)

        def simulate() -> dict:
            runtime = ServiceRuntime(
                requests,
                make_scheduler(self.scheduler),
                self.max_concurrent,
                self._baselines(requests),
            )
            return build_report(workload_hash, fingerprint, runtime.run())

        report, path, reused = store.load_or_run(
            SERVICE_REPORT, self._dir("service"), workload_hash, simulate,
            self.resume, self.progress,
        )
        return ServiceOutcome(report, 0 if reused else len(report["tenants"]), path)
