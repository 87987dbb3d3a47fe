"""figS — the scheduler panel for the multi-tenant training service.

The paper stops at single-job economics; this extension asks the
service operator's question: with jobs from many tenants arriving as a
Poisson stream onto shared storage capacity, which admission policy
wins, and what does it trade away?

A fixed workload — ``JOBS`` Poisson arrivals cycling two heterogeneous
job classes (a cheap and an expensive LR/RCV1 configuration, both
communication-bound on one shared redis node) — is replayed under every
registered scheduler. The grid points are the two class configs (their
isolated runs are the slowdown/cost denominators and the replay-trace
sources); ``aggregate`` then simulates one service run per scheduler on
the shared engine and reports p50/p99 completion, $/job and contention
slowdown — including the measured p99-vs-cost trade-off between
``fifo`` and ``adaptive`` worker scaling.
"""

from __future__ import annotations

from repro.config import DEFAULT_SEED
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import study

JOBS = 12
RATE_PER_HOUR = 3600.0  # one arrival a second: faster than service
ACCOUNTS = 3
MAX_CONCURRENT = 4


def class_kwargs(max_epochs: float | None = None, seed: int = DEFAULT_SEED) -> list[dict]:
    """The two tenant job classes (cheap vs expensive, both comm-bound)."""
    base = dict(
        model="lr", dataset="rcv1", workers=8, max_epochs=max_epochs or 2.0,
        channel="redis", channel_prestarted=True, seed=seed,
    )
    return [
        dict(base, data_scale=2000),  # "small": cheap, fast
        dict(base, data_scale=6000),  # "large": 3x the data, pricier
    ]


def sweep_points(
    max_epochs: float | None = None, seed: int = DEFAULT_SEED
) -> list[SweepPoint]:
    return [
        Scenario(
            kw,
            label=f"class={label} lr/rcv1,W={kw['workers']},scale={kw['data_scale']}",
            tags={"series": "service", "class": label},
        ).point("figS")
        for label, kw in zip(("small", "large"), class_kwargs(max_epochs, seed))
    ]


def simulate_schedulers(artifacts: list[dict]) -> dict:
    """One Poisson service run per scheduler, over shared baselines."""
    from repro.service import (
        SCHEDULER_NAMES,
        BaselineProvider,
        JobRequest,
        ServiceRuntime,
        make_scheduler,
        poisson_arrivals,
        service_metrics,
    )

    provider = BaselineProvider()
    provider.prime({a["config_hash"]: a for a in artifacts})
    # The artifacts ARE the class configs (tagged small/large); cycle
    # them across the arrival stream, seeded by the classes' own seed.
    by_class = {a["tags"]["class"]: dict(a["config"]) for a in artifacts}
    classes = [by_class[label] for label in sorted(by_class)]
    seed = int(classes[0]["seed"])
    arrivals = poisson_arrivals(seed, RATE_PER_HOUR, JOBS)
    requests = [
        JobRequest(
            job=f"j{i:03d}",
            tenant=f"acct{i % ACCOUNTS}",
            arrival_s=t,
            config_kwargs=dict(classes[i % len(classes)]),
        )
        for i, t in enumerate(arrivals)
    ]
    schedulers = {}
    for name in SCHEDULER_NAMES:
        records = ServiceRuntime(
            [JobRequest(r.job, r.tenant, r.arrival_s, dict(r.config_kwargs),
                        r.priority) for r in requests],
            make_scheduler(name),
            MAX_CONCURRENT,
            provider,
        ).run()
        schedulers[name] = service_metrics(records)
    return {
        "tenants": JOBS,
        "rate_per_hour": RATE_PER_HOUR,
        "seed": seed,
        "max_concurrent": MAX_CONCURRENT,
        "schedulers": schedulers,
    }


def format_report(result: dict) -> str:
    from repro.experiments.report import format_table

    schedulers = result["schedulers"]
    table = format_table(
        f"figS — service schedulers ({result['tenants']} Poisson jobs @ "
        f"{result['rate_per_hour']:g}/h, limit {result['max_concurrent']})",
        ["scheduler", "p50 (s)", "p99 (s)", "$/job", "mean slowdown",
         "max slowdown", "fairness", "makespan (s)"],
        [
            [name, m["p50_completion_s"], m["p99_completion_s"],
             m["cost_per_job"], m["mean_slowdown"], m["max_slowdown"],
             m.get("fairness_jain", 1.0), m["makespan_s"]]
            for name, m in schedulers.items()
        ],
    )
    lines = [table]
    fifo, adaptive = schedulers.get("fifo"), schedulers.get("adaptive")
    if fifo and adaptive:
        lines.append(
            "fifo vs adaptive: "
            f"$/job {fifo['cost_per_job']:.4g} -> {adaptive['cost_per_job']:.4g}, "
            f"p99 {fifo['p99_completion_s']:.4g} s -> "
            f"{adaptive['p99_completion_s']:.4g} s "
            "(adaptive trades tail latency for cost)"
        )
    return "\n".join(lines)


@study("figS")
class ServiceSchedulerStudy:
    """service extension: four admission schedulers over one Poisson multi-tenant workload"""

    @staticmethod
    def points(ctx):
        return sweep_points(max_epochs=ctx.max_epochs, seed=ctx.seed)

    aggregate = staticmethod(simulate_schedulers)
    format_report = staticmethod(format_report)
