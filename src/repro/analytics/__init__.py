"""Analytical model of FaaS vs IaaS training (paper Section 5.3)."""

from repro.analytics.constants import TABLE6, AnalyticalConstants
from repro.analytics.estimator import SamplingEstimator
from repro.analytics.model import AnalyticalModel, WorkloadParams

__all__ = [
    "TABLE6",
    "AnalyticalConstants",
    "AnalyticalModel",
    "WorkloadParams",
    "SamplingEstimator",
]
