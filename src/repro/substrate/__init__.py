"""Pluggable statistical substrate: exact, per-rank, and replay.

Separates *what the workers compute* (datasets, shards, algorithms,
losses) from *what the simulation times and bills* (commands, clocks,
dollars). See :mod:`repro.substrate.base` for the contract,
:mod:`repro.substrate.lockstep` for how an exact BSP run computes its
statistics, and :mod:`repro.substrate.traces` for the trace artifact
schema.
"""

from __future__ import annotations

from repro.errors import SubstrateError
from repro.substrate.base import Substrate
from repro.substrate.exact import ExactSubstrate, PerRankSubstrate
from repro.substrate.replay import ReplaySubstrate
from repro.substrate.traces import (
    TRACE_SCHEMA_VERSION,
    TraceError,
    load_trace,
    scan_traces,
    trace_path,
    validate_trace,
    write_trace,
)

# The frozen benchmark ledger still imports the old name of the recorder.
RecordingSubstrate = ExactSubstrate

__all__ = [
    "Substrate",
    "ExactSubstrate",
    "PerRankSubstrate",
    "ReplaySubstrate",
    "TRACE_SCHEMA_VERSION",
    "TraceError",
    "load_trace",
    "make_substrate",
    "scan_traces",
    "trace_path",
    "validate_trace",
    "write_trace",
]


def make_substrate(spec, config) -> Substrate:
    """The substrate a run of `config` attaches: `spec` when it is an
    instance, else the default — :class:`PerRankSubstrate` for a
    timing-coupled config, :class:`ExactSubstrate` for any other."""
    if spec is None:
        return PerRankSubstrate() if config.timing_coupled else ExactSubstrate()
    if isinstance(spec, Substrate):
        return spec
    raise SubstrateError(
        f"unknown substrate {spec!r}; expected None or a Substrate instance"
    )
