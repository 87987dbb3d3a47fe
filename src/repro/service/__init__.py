"""Multi-tenant training service: arrivals, schedulers, shared-engine runtime.

The public entry point is :class:`repro.api.Service`; this package holds
the mechanism — see :mod:`repro.service.runtime` for the architecture.
"""

from repro.service.arrivals import JobRequest, build_requests, poisson_arrivals
from repro.service.config import (
    SCHEDULER_NAMES,
    ServiceConfig,
    service_fingerprint,
    service_hash,
)
from repro.service.metrics import (
    build_report,
    format_service_report,
    service_metrics,
    validate_report,
)
from repro.service.runtime import (
    BaselineProvider,
    ServiceRuntime,
    SharedServices,
)
from repro.service.schedulers import SCHEDULERS, Scheduler, make_scheduler
from repro.utils.stats import jain_fairness, percentile

__all__ = [
    "SCHEDULERS",
    "SCHEDULER_NAMES",
    "BaselineProvider",
    "JobRequest",
    "Scheduler",
    "ServiceConfig",
    "ServiceRuntime",
    "SharedServices",
    "build_report",
    "build_requests",
    "format_service_report",
    "jain_fairness",
    "make_scheduler",
    "percentile",
    "poisson_arrivals",
    "service_fingerprint",
    "service_hash",
    "service_metrics",
    "validate_report",
]
