"""Job arrivals: seeded Poisson process and trace-driven workloads.

The Poisson stream uses the fault plane's counter-mode draw discipline
(:func:`repro.faults.plan.unit_draw` — ``sha256(seed, stream, index)``)
so the arrival pattern is a pure function of the service seed: the same
seed produces the same workload on every host, and arrivals never
perturb any other stream (training RNG, crash instants, jitter).

Trace-driven arrivals load a JSON workload file — a list of job
entries::

    [{"arrival_s": 0.0, "tenant": "acme", "priority": 1.0,
      "config": {"workers": 25}},
     ...]

``config`` holds per-job ``TrainingConfig`` overrides on top of the
service's base workload; ``tenant``/``priority``/``job`` are optional.
Every resolved entry must construct a ``TrainingConfig`` before any job
is simulated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.core.config import TrainingConfig
from repro.errors import ConfigurationError
from repro.faults.plan import unit_draw
from repro.service.config import ServiceConfig

ARRIVAL_STREAM = "service/arrival"


@dataclass(frozen=True)
class JobRequest:
    """One submitted training job (picklable, primitives only)."""

    job: str  # unique id within the service run ("j00", ...)
    tenant: str  # account the job bills to (fair-share unit)
    arrival_s: float  # absolute instant the job enters the queue
    config_kwargs: dict = field(default_factory=dict)
    priority: float = 0.0


def poisson_arrivals(seed: int, rate_per_hour: float, count: int) -> list[float]:
    """`count` arrival instants of a seeded Poisson process (seconds).

    Inverse-CDF exponential inter-arrivals from the counter-mode unit
    stream — the same transform :meth:`FaultPlan.crash_times` uses for
    crash instants, on its own stream name.
    """
    mean_gap = 3600.0 / rate_per_hour
    times = []
    t = 0.0
    for index in range(count):
        u = unit_draw(seed, ARRIVAL_STREAM, index)
        t += -mean_gap * math.log(1.0 - u)
        times.append(t)
    return times


def load_trace(path: str) -> list[dict]:
    """Parse and shape-check a JSON workload trace.

    The trace is the one user-authored JSON file the program reads, so
    every way it can be wrong is a :class:`ConfigurationError` naming
    the file (and entry). It has no key or schema: not a store kind.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ConfigurationError(f"workload trace {path}: unreadable ({exc})") from exc
    if not isinstance(entries, list) or not entries:
        raise ConfigurationError(f"workload trace {path}: expected a non-empty list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "arrival_s" not in entry:
            raise ConfigurationError(
                f"workload trace {path}: entry {i} needs an 'arrival_s' field"
            )
        if not isinstance(entry.get("config", {}), dict):
            raise ConfigurationError(
                f"workload trace {path}: entry {i} 'config' must be an object"
            )
        for name in ("arrival_s", "priority"):
            try:
                value = float(entry.get(name, 0.0))
            except (TypeError, ValueError):
                value = math.nan
            # An arrival is an instant of the run: never before its start.
            if not math.isfinite(value) or (name == "arrival_s" and value < 0):
                raise ConfigurationError(
                    f"workload trace {path}: entry {i} {name!r} must be a finite "
                    f"number{' >= 0' if name == 'arrival_s' else ''}, got {entry[name]!r}"
                )
    return entries


def build_requests(config: ServiceConfig) -> list[JobRequest]:
    """The service run's full workload, sorted by arrival time."""
    base = config.job_kwargs()
    if config.arrivals == "poisson":
        times = poisson_arrivals(config.seed, config.rate, config.tenants)
        requests = [
            JobRequest(
                job=f"j{i:03d}",
                tenant=f"acct{i % config.accounts}",
                arrival_s=t,
                config_kwargs=dict(base),
            )
            for i, t in enumerate(times)
        ]
    else:
        entries = load_trace(config.trace)
        requests = [
            JobRequest(
                job=str(entry.get("job", f"j{i:03d}")),
                tenant=str(entry.get("tenant", f"acct{i % config.accounts}")),
                arrival_s=float(entry["arrival_s"]),
                config_kwargs={**base, **entry.get("config", {})},
                priority=float(entry.get("priority", 0.0)),
            )
            for i, entry in enumerate(entries)
        ]
        # Per-job overrides are outside input: refuse a misspelt field or
        # value here, not after the tenants ahead of it have been simulated.
        for i, request in enumerate(requests):
            try:
                TrainingConfig(**request.config_kwargs)
            except (TypeError, ConfigurationError) as exc:
                raise ConfigurationError(
                    f"workload trace {config.trace}: entry {i} 'config' is not "
                    f"a training config: {exc}"
                ) from exc
    requests.sort(key=lambda r: (r.arrival_s, r.job))
    jobs = [r.job for r in requests]
    if len(set(jobs)) != len(jobs):
        raise ConfigurationError("workload has duplicate job ids")
    return requests
