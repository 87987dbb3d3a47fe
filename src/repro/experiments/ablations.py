"""Ablations over LambdaML's design choices (beyond the paper's tables).

Each ablation varies one config field of a Table-4 LambdaML job and
keeps the rest: ADMM local scans per round (LR/Higgs to its threshold),
Lambda memory (the vCPU share scales with it; 10 epochs), the
ElastiCache node tier (MobileNet, 1 epoch) and the synchronous
protocol's poll interval (MA-SGD, 5 epochs). Only the scan count moves
the statistics, so a sweep records 4 + 3 traces and replays the rest.
"""

from __future__ import annotations

from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, StudyContext, Table, study


def sweep_points(ctx: StudyContext = StudyContext()) -> list[SweepPoint]:
    """The four ablations, one point per value of the field each varies."""
    lr_higgs = Scenario.workload(
        "lr", "higgs", system="lambdaml", channel="s3", max_epochs=40, seed=ctx.seed
    )
    fixed = lr_higgs.vary(loss_threshold=None)  # run the whole epoch budget
    ablations = {
        "admm_scans": lr_higgs.grid(admm_scans=(2, 5, 10, 20)),
        "lambda_memory_gb": fixed.vary(max_epochs=10).grid(
            lambda_memory_gb=(1.0, 2.0, 3.0)
        ),
        "cache_node": Scenario.workload(
            "mobilenet", "cifar10", system="lambdaml", channel="memcached",
            channel_prestarted=True, loss_threshold=None, max_epochs=1, seed=ctx.seed,
        ).grid(cache_node=("cache.t3.small", "cache.t3.medium", "cache.m5.large")),
        "poll_interval_s": fixed.vary(algorithm="ma_sgd", max_epochs=5).grid(
            poll_interval_s=(0.01, 0.05, 0.2, 1.0)
        ),
    }
    return [
        (s.vary(max_epochs=ctx.max_epochs) if ctx.max_epochs else s)
        .named(s.label, ablation=name)
        .point("ablations")
        for name, scenarios in ablations.items()
        for s in scenarios
    ]


def _table(field: str, header: str, title: str, *columns) -> Table:
    """One ablation's table: the rows that vary ``field``, its value first."""
    return Table(title, ((header, field), *columns), where=(("ablation", field),))


def _compare(rows, field: str, a, b, measure: str, holds) -> str | None:
    """``None`` when ``holds(run at field=a, run at field=b)``, both by ``measure``."""
    runs = {r[field]: r[measure] for r in rows if r["ablation"] == field}
    x, y = runs[a], runs[b]
    return None if holds(x, y) else f"{field}={a}: {x:.4g}, {field}={b}: {y:.4g}"


def _every_scan_count_converges(rows) -> str | None:
    stuck = [f"{r['admm_scans']} scans" for r in rows
             if r["ablation"] == "admm_scans" and not r["converged"]]
    return ", ".join(stuck) + " did not converge" if stuck else None


@study("ablations")
class AblationsStudy:
    """LambdaML design-knob ablations: ADMM scans, Lambda memory, cache node, poll interval"""

    points = staticmethod(sweep_points)
    report = (
        _table("admm_scans", "scans",
               "Ablation — ADMM local scans per round (LR, Higgs, W=10)",
               ("converged", "converged"), ("rounds", "comm_rounds"), ("epochs", "epochs"),
               ("time(s)", "duration_s"), ("cost($)", "cost_total")),
        _table("lambda_memory_gb", "memory (GB)",
               "Ablation — Lambda memory size (vCPU share), 10 fixed epochs",
               ("compute(s)", "compute_s"), ("time(s)", "duration_s"),
               ("cost($)", "cost_total")),
        _table("cache_node", "node",
               "Ablation — ElastiCache node tier (MobileNet, 1 epoch)",
               ("comm(s)", "comm_s"), ("time(s)", "duration_s"), ("cost($)", "cost_total")),
        _table("poll_interval_s", "poll (s)",
               "Ablation — synchronous-protocol poll interval (MA-SGD, 5 epochs)",
               ("wait+merge (s)", lambda r: r["wait_s"] + r["merge_s"]),
               ("time(s)", "duration_s")),
    )
    claims = (
        Claim("ablations.more_scans_fewer_rounds", "ablation beyond the paper",
              lambda r: _compare(r, "admm_scans", 20, 2, "comm_rounds",
                                 lambda more, fewer: more <= fewer)),
        Claim("ablations.every_scan_count_converges", "ablation beyond the paper",
              _every_scan_count_converges),
        # 1 GB functions get a third of a 3 GB function's vCPU share...
        Claim("ablations.small_lambda_computes_slower", "ablation beyond the paper",
              lambda r: _compare(r, "lambda_memory_gb", 1.0, 3.0, "compute_s",
                                 lambda small, large: small > 2.5 * large)),
        # ...so they are cheaper per second but not in proportion.
        Claim("ablations.small_lambda_not_much_cheaper", "ablation beyond the paper",
              lambda r: _compare(r, "lambda_memory_gb", 1.0, 3.0, "cost_total",
                                 lambda small, large: small > 0.7 * large)),
        Claim("ablations.bigger_cache_node_faster_comm", "ablation beyond the paper",
              lambda r: _compare(r, "cache_node", "cache.m5.large", "cache.t3.small",
                                 "comm_s", lambda big, small: big < small)),
        Claim("ablations.coarser_polling_slower", "ablation beyond the paper",
              lambda r: _compare(r, "poll_interval_s", 1.0, 0.01, "duration_s",
                                 lambda coarse, fine: coarse > fine)),
    )
