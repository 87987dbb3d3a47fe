"""Serving-level metrics and the persisted serving report.

Pure functions of the per-request records and pool summary the runtime
produced — no host wall-clock, no engine internals — so a serving
report is byte-identical across hosts and across serial/pooled runs.
"""

from __future__ import annotations

from functools import partial

from repro import store
from repro.errors import SimulationError
from repro.utils.stats import fold, percentile, tally

SERVING_SCHEMA_VERSION = 1


def serving_metrics(records: list[dict], pool: dict) -> dict:
    """Aggregate one serving run into its scorecard."""
    if not records:
        raise SimulationError("serving run produced no request records")
    latencies = [r["latency_s"] for r in records]
    n = len(records)
    cold = tally(1 for r in records if r["cold"])
    alive_s = pool["alive_s"]
    return {
        "requests": n,
        "p50_latency_s": percentile(latencies, 50.0),
        "p99_latency_s": percentile(latencies, 99.0),
        "p999_latency_s": percentile(latencies, 99.9),
        "mean_latency_s": fold(latencies) / n,
        "max_latency_s": max(latencies),
        "cold_starts": pool["cold_starts"],
        "cold_start_fraction": cold / n,
        "replicas_provisioned": pool["replicas_provisioned"],
        "peak_replicas": pool["peak_replicas"],
        "utilization": (pool["busy_s"] / alive_s) if alive_s > 0 else 0.0,
        "makespan_s": pool["makespan_s"],
        "total_cost": pool["total_cost"],
        "cost_per_1m_requests": pool["total_cost"] / n * 1_000_000.0,
    }


def build_serving_report(
    serving_hash: str,
    fingerprint: dict,
    model: dict,
    records: list[dict],
    pool: dict,
) -> dict:
    """The persisted (content-addressed) serving report document."""
    metrics = serving_metrics(records, pool)
    return {
        "schema": SERVING_SCHEMA_VERSION,
        "kind": "serving_report",
        "serving_hash": serving_hash,
        "serving": fingerprint,
        "model": model,
        "requests": records,
        "pool": pool,
        "metrics": metrics,
        "end_to_end_dollars": model["training_cost"] + metrics["cost_per_1m_requests"],
    }


SERVING_REPORT = store.Kind(
    name="serving report",
    error=SimulationError,
    schema=SERVING_SCHEMA_VERSION,
    shape={"kind": str, "serving_hash": str, "serving": dict, "model": dict,
           "requests": list, "pool": dict, "metrics": dict,
           "end_to_end_dollars": float},
    key="serving_hash",
    check=store.report_check("serving_report", "requests"),
)
validate_serving_report = partial(store.validate, SERVING_REPORT)  # (report, expected_hash=None)


def format_serving_report(report: dict) -> str:
    """Render a serving report the way the experiment tables are rendered."""
    from repro.experiments.report import format_table

    metrics = report["metrics"]
    serving = report["serving"]
    model = report["model"]
    table = format_table(
        f"Serving report ({serving.get('platform', '?')} x "
        f"{serving.get('traffic', '?')} x {serving.get('autoscaler', '?')}, "
        f"{metrics['requests']} requests)",
        ["metric", "value"],
        [
            ["p50 latency (s)", metrics["p50_latency_s"]],
            ["p99 latency (s)", metrics["p99_latency_s"]],
            ["p99.9 latency (s)", metrics["p999_latency_s"]],
            ["cold-start fraction", metrics["cold_start_fraction"]],
            ["replica utilization", metrics["utilization"]],
            ["peak replicas", metrics["peak_replicas"]],
            ["$ / 1M requests", metrics["cost_per_1m_requests"]],
        ],
    )
    summary = (
        f"model {model['name']} ({model['quality']}, "
        f"{model['param_bytes'] / (1024 * 1024):.3g} MB, "
        f"load {model['load_seconds']:.3g} s) | "
        f"training ${model['training_cost']:.4g} + serving "
        f"${metrics['cost_per_1m_requests']:.4g}/1M req = "
        f"${report['end_to_end_dollars']:.4g} end-to-end"
    )
    return f"{table}\n{summary}"
