"""Service-level metrics and the report document.

Everything here is a pure function of the per-job records the runtime
produced — no host wall-clock, no engine internals — so a report is
byte-identical across hosts and across serial/pooled baseline runs.
"""

from __future__ import annotations

from functools import partial

from repro import store
from repro.errors import SimulationError
from repro.utils.stats import fold, jain_fairness, percentile, tally

REPORT_SCHEMA_VERSION = 1


def _tenant_mean_slowdowns(records: list[dict]) -> list[float]:
    """Per-tenant mean slowdown, in first-appearance order."""
    totals: dict = {}
    for r in records:
        slowdown_sum, jobs = totals.setdefault(r["tenant"], [0.0, 0])
        totals[r["tenant"]] = [slowdown_sum + r["slowdown"], jobs + 1]
    return [slowdown_sum / jobs for slowdown_sum, jobs in totals.values()]


def service_metrics(records: list[dict]) -> dict:
    """Aggregate per-job records into the service-level scorecard."""
    completions = [r["completion_s"] for r in records]
    slowdowns = [r["slowdown"] for r in records]
    total_cost = fold(r["cost_dollars"] for r in records)
    jobs = len(records)
    return {
        "jobs": jobs,
        "p50_completion_s": percentile(completions, 50.0),
        "p99_completion_s": percentile(completions, 99.0),
        "mean_completion_s": fold(completions) / jobs,
        "mean_queue_s": fold(r["queue_s"] for r in records) / jobs,
        "total_cost": total_cost,
        "cost_per_job": total_cost / jobs,
        "mean_slowdown": fold(slowdowns) / jobs,
        "max_slowdown": max(slowdowns),
        # How evenly the schedulers spread contention: Jain's index over
        # per-tenant mean slowdowns (1 = every tenant slowed equally).
        "fairness_jain": jain_fairness(_tenant_mean_slowdowns(records)),
        "makespan_s": max(r["completed_s"] for r in records),
        "converged_jobs": tally(1 for r in records if r["converged"]),
    }


def build_report(
    service_hash: str,
    fingerprint: dict,
    records: list[dict],
) -> dict:
    """The persisted (content-addressed) service report document."""
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "kind": "service_report",
        "service_hash": service_hash,
        "service": fingerprint,
        "tenants": records,
        "metrics": service_metrics(records),
    }


# Not re-hashed: the key covers the resolved workload, which a report
# built under any other key (tests, tools) need not reproduce.
SERVICE_REPORT = store.Kind(
    name="service report",
    error=SimulationError,
    schema=REPORT_SCHEMA_VERSION,
    shape={"kind": str, "service_hash": str, "service": dict,
           "tenants": list, "metrics": dict},
    key="service_hash",
    check=store.report_check("service_report", "tenants"),
)
validate_report = partial(store.validate, SERVICE_REPORT)  # (report, expected_hash=None)


def format_service_report(report: dict) -> str:
    """Render a report the way the experiment tables are rendered."""
    from repro.experiments.report import format_table

    metrics = report["metrics"]
    rows = [
        [
            r["job"], r["tenant"], r["workers_granted"], r["queue_s"],
            r["run_s"], r["completion_s"], r["slowdown"], r["cost_dollars"],
        ]
        for r in report["tenants"]
    ]
    table = format_table(
        f"Service report ({report['service'].get('scheduler', '?')}, "
        f"{metrics['jobs']} jobs)",
        ["job", "tenant", "W", "queue(s)", "run(s)", "completion(s)",
         "slowdown", "cost($)"],
        rows,
    )
    summary = (
        f"p50 completion {metrics['p50_completion_s']:.3g} s | "
        f"p99 {metrics['p99_completion_s']:.3g} s | "
        f"$/job {metrics['cost_per_job']:.4g} | "
        f"mean slowdown {metrics['mean_slowdown']:.3g}x | "
        f"fairness {metrics.get('fairness_jain', 1.0):.3g} | "
        f"makespan {metrics['makespan_s']:.3g} s"
    )
    return f"{table}\n{summary}"
