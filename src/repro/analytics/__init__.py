"""Analytical model of FaaS vs IaaS training (paper Section 5.3)."""

from repro.analytics.estimator import SamplingEstimator
from repro.analytics.model import AnalyticalModel, WorkloadParams

__all__ = [
    "AnalyticalModel",
    "WorkloadParams",
    "SamplingEstimator",
]
