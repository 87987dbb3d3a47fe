"""Q3 extension: multi-tenant / peaky training workloads.

The paper leaves multi-tenancy to future work but sketches the
hypothesis: with many independent training jobs arriving in bursts,
FaaS's on-demand start-up should beat both a reserved cluster (pays for
idle valleys) and on-demand VMs (pays start-up latency per job).

We evaluate that hypothesis analytically: a day-long horizon receives
bursts of identical jobs (the LR/Higgs workload); we compare

* **faas** — every job starts its own Lambda fleet on arrival;
* **iaas-reserved** — a cluster sized for the peak is held all day;
* **iaas-ondemand** — a cluster boots per job and is released after.

Metrics: mean job latency (queueing + start-up + run) and total cost.

Two registered studies share this module: ``multitenancy_analytical``
keeps the closed-form comparison above, and ``multitenancy`` *simulates*
the burst on the multi-tenant service runtime (shared engine, shared
storage capacity, FIFO admission) swept over the admission limit — the
queueing-vs-contention trade-off the closed form cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytics.model import AnalyticalModel, WorkloadParams
from repro.config import DEFAULT_SEED
from repro.pricing.catalog import DEFAULT_CATALOG
from repro.sweep.scenario import Scenario
from repro.sweep.study import study

HORIZON_S = 24 * 3600.0


def default_params() -> WorkloadParams:
    """The registry study's workload: LR/Higgs ADMM, ~20 epochs/job."""
    # ADMM: one exchange per ten scans.
    return WorkloadParams.from_zoo("lr", "higgs", epochs=20.0, rounds_per_epoch=0.1)


@dataclass(frozen=True)
class ArrivalPattern:
    """Deterministic bursts: `burst_jobs` jobs arrive together every
    `burst_interval_s`, e.g. nightly retraining of per-tenant models."""

    burst_jobs: int = 8
    burst_interval_s: float = 4 * 3600.0

    def arrivals(self) -> list[float]:
        times = []
        t = 0.0
        while t < HORIZON_S:
            times.extend([t] * self.burst_jobs)
            t += self.burst_interval_s
        return times


@dataclass
class TenancyOutcome:
    platform: str
    mean_latency_s: float
    total_cost: float
    jobs: int


def run(
    params: WorkloadParams,
    workers: int = 10,
    pattern: ArrivalPattern = ArrivalPattern(),
    lambda_memory_gb: float = 3.0,
    instance: str = "t2.medium",
) -> list[TenancyOutcome]:
    model = AnalyticalModel(params)
    arrivals = pattern.arrivals()
    n_jobs = len(arrivals)

    faas_latency = model.faas_seconds(workers)
    faas_cost_per_job = model.faas_cost(workers, lambda_memory_gb)
    outcomes = [
        TenancyOutcome("faas", faas_latency, n_jobs * faas_cost_per_job, n_jobs)
    ]

    # Reserved cluster: no start-up per job (paid once, before the
    # horizon), but one job at a time — bursts queue.
    run_seconds = model.iaas_seconds(workers) - model.constants.startup_iaas(workers)
    hourly = DEFAULT_CATALOG.ec2_price(instance)
    free_at = 0.0
    total_latency = 0.0
    for arrival in arrivals:
        start = max(arrival, free_at)
        finish = start + run_seconds
        total_latency += finish - arrival
        free_at = finish
    reserved_cost = workers * hourly * max(HORIZON_S, free_at) / 3600.0
    outcomes.append(
        TenancyOutcome("iaas-reserved", total_latency / n_jobs, reserved_cost, n_jobs)
    )

    # On-demand VMs: each job boots its own cluster; jobs run in
    # parallel but every one eats t_I(w) of latency and billed time.
    ondemand_latency = model.iaas_seconds(workers)
    ondemand_cost = n_jobs * workers * hourly * ondemand_latency / 3600.0
    outcomes.append(
        TenancyOutcome("iaas-ondemand", ondemand_latency, ondemand_cost, n_jobs)
    )
    return outcomes


def format_report(outcomes: list[TenancyOutcome]) -> str:
    from repro.experiments.report import format_table

    return format_table(
        "Q3 extension — multi-tenant peaky workload (analytical)",
        ["platform", "mean latency (s)", "total cost ($)", "jobs"],
        [[o.platform, o.mean_latency_s, o.total_cost, o.jobs] for o in outcomes],
    )


@study("multitenancy_analytical")
class MultitenancyAnalyticalStudy:
    """Q3 extension (closed form): peaky multi-tenant arrivals on FaaS vs reserved/on-demand IaaS"""

    aggregate = staticmethod(lambda artifacts: run(default_params()))
    format_report = staticmethod(format_report)


# -- the simulated counterpart -------------------------------------------
#
# The closed-form study above prices the burst hypothesis; this grid
# study *simulates* it on the multi-tenant service runtime: one burst of
# identical jobs on a shared engine with shared storage capacity, swept
# over the admission limit. Registering it as a grid study means
# ``--jobs/--resume`` and record/replay apply to the isolated baseline,
# and the burst simulation itself rides in ``aggregate``.

BURST_JOBS = 8
BURST_ACCOUNTS = 3
BURST_LIMITS = (2, 4, 8)


def burst_config_kwargs(
    max_epochs: float | None = None, seed: int = DEFAULT_SEED
) -> dict:
    """The burst job class: communication-bound LR/RCV1 over one shared
    redis node (prestarted — the service keeps a warm pool), where a
    neighbour's traffic is actually visible in your transfer times."""
    return dict(
        model="lr", dataset="rcv1", workers=4, data_scale=2000,
        max_epochs=max_epochs or 2.0, channel="redis",
        channel_prestarted=True, seed=seed,
    )


def simulate_bursts(artifacts: list[dict]) -> list[dict]:
    """One burst of identical jobs per admission limit, via the service."""
    from repro.service import (
        BaselineProvider,
        JobRequest,
        ServiceRuntime,
        make_scheduler,
        service_metrics,
    )

    provider = BaselineProvider()
    provider.prime({a["config_hash"]: a for a in artifacts})
    kwargs = dict(artifacts[0]["config"])
    rows = []
    for limit in BURST_LIMITS:
        requests = [
            JobRequest(
                job=f"j{i:03d}",
                tenant=f"acct{i % BURST_ACCOUNTS}",
                arrival_s=0.0,
                config_kwargs=dict(kwargs),
            )
            for i in range(BURST_JOBS)
        ]
        records = ServiceRuntime(
            requests, make_scheduler("fifo"), limit, provider
        ).run()
        rows.append({"max_concurrent": limit, **service_metrics(records)})
    return rows


def format_burst_report(rows: list[dict]) -> str:
    from repro.experiments.report import format_table

    return format_table(
        f"Multi-tenancy (simulated) — burst of {BURST_JOBS} jobs, "
        "queueing vs contention",
        ["max_concurrent", "p50 completion (s)", "p99 completion (s)",
         "mean slowdown", "$/job", "makespan (s)"],
        [
            [r["max_concurrent"], r["p50_completion_s"], r["p99_completion_s"],
             r["mean_slowdown"], r["cost_per_job"], r["makespan_s"]]
            for r in rows
        ],
    )


@study("multitenancy")
class MultitenancyStudy:
    """Q3 extension (simulated): a burst of tenants on one shared engine, swept over the admission limit"""

    @staticmethod
    def points(ctx):
        return [
            Scenario(burst_config_kwargs(max_epochs=ctx.max_epochs, seed=ctx.seed))
            .named(
                "lr/rcv1,W=4,redis (burst job class)",
                series="burst", role="isolated-baseline",
            )
            .point("multitenancy")
        ]

    aggregate = staticmethod(simulate_bursts)
    format_report = staticmethod(format_burst_report)
