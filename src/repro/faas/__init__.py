"""Simulated FaaS (AWS-Lambda-like) runtime substrate."""

from repro.faas.checkpoint import checkpoint_bytes, checkpoint_key
from repro.faas.limits import LambdaLimits, lambda_speed_factor, lambda_vcpus
from repro.faas.runtime import FunctionLifetime, faas_startup_seconds

__all__ = [
    "LambdaLimits",
    "lambda_vcpus",
    "lambda_speed_factor",
    "FunctionLifetime",
    "faas_startup_seconds",
    "checkpoint_key",
    "checkpoint_bytes",
]
