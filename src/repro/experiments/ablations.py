"""Ablations over LambdaML's design choices (beyond the paper's tables).

Each ablation varies one config field of a Table-4 LambdaML job and
keeps the rest: ADMM local scans per round (LR/Higgs to its threshold),
Lambda memory (the vCPU share scales with it; 10 epochs), the
ElastiCache node tier (MobileNet, 1 epoch) and the synchronous
protocol's poll interval (MA-SGD, 5 epochs). Only the scan count moves
the statistics, so a sweep records 4 + 3 traces and replays the rest.
"""

from __future__ import annotations

from repro.config import DEFAULT_SEED
from repro.core.results import RunResult
from repro.experiments.report import format_table
from repro.sweep.artifacts import result_from_artifact
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, study


def sweep_points(
    max_epochs: float | None = None, seed: int = DEFAULT_SEED
) -> list[SweepPoint]:
    """The four ablations, one point per value of the field each varies."""
    lr_higgs = Scenario.workload(
        "lr", "higgs", system="lambdaml", channel="s3", max_epochs=40, seed=seed
    )
    fixed = lr_higgs.vary(loss_threshold=None)  # run the whole epoch budget
    ablations = {
        "admm_scans": lr_higgs.grid(admm_scans=(2, 5, 10, 20)),
        "lambda_memory_gb": fixed.vary(max_epochs=10).grid(
            lambda_memory_gb=(1.0, 2.0, 3.0)
        ),
        "cache_node": Scenario.workload(
            "mobilenet", "cifar10", system="lambdaml", channel="memcached",
            channel_prestarted=True, loss_threshold=None, max_epochs=1, seed=seed,
        ).grid(cache_node=("cache.t3.small", "cache.t3.medium", "cache.m5.large")),
        "poll_interval_s": fixed.vary(algorithm="ma_sgd", max_epochs=5).grid(
            poll_interval_s=(0.01, 0.05, 0.2, 1.0)
        ),
    }
    return [
        (s.vary(max_epochs=max_epochs) if max_epochs else s)
        .named(s.label, ablation=name)
        .point("ablations")
        for name, scenarios in ablations.items()
        for s in scenarios
    ]


def aggregate(artifacts: list[dict]) -> dict[str, list[tuple[object, RunResult]]]:
    """Varied field -> ``(value, result)`` in grid order."""
    result: dict[str, list[tuple[object, RunResult]]] = {}
    for artifact in artifacts:
        field = artifact["tags"]["ablation"]
        result.setdefault(field, []).append(
            (artifact["config"][field], result_from_artifact(artifact))
        )
    return result


def format_report(result: dict[str, list[tuple[object, RunResult]]]) -> str:
    tables = {
        "admm_scans": (
            "Ablation — ADMM local scans per round (LR, Higgs, W=10)",
            ["scans", "converged", "rounds", "epochs", "time(s)", "cost($)"],
            lambda r: [r.converged, r.comm_rounds, r.epochs, r.duration_s, r.cost_total],
        ),
        "lambda_memory_gb": (
            "Ablation — Lambda memory size (vCPU share), 10 fixed epochs",
            ["memory (GB)", "compute(s)", "time(s)", "cost($)"],
            lambda r: [r.breakdown.get("compute"), r.duration_s, r.cost_total],
        ),
        "cache_node": (
            "Ablation — ElastiCache node tier (MobileNet, 1 epoch)",
            ["node", "comm(s)", "time(s)", "cost($)"],
            lambda r: [r.breakdown.get("comm"), r.duration_s, r.cost_total],
        ),
        "poll_interval_s": (
            "Ablation — synchronous-protocol poll interval (MA-SGD, 5 epochs)",
            ["poll (s)", "wait+merge (s)", "time(s)"],
            lambda r: [r.breakdown.get("wait") + r.breakdown.get("merge"), r.duration_s],
        ),
    }
    return "\n\n".join(
        format_table(title, headers, [[value, *cells(r)] for value, r in result[name]])
        for name, (title, headers, cells) in tables.items()
        if name in result
    )


def _compare(result, field: str, a, b, measure, holds) -> str | None:
    """``None`` when ``holds(measure(run at field=a), measure(run at field=b))``."""
    runs = dict(result[field])
    x, y = measure(runs[a]), measure(runs[b])
    return None if holds(x, y) else f"{field}={a}: {x:.4g}, {field}={b}: {y:.4g}"


def _every_scan_count_converges(result) -> str | None:
    stuck = [f"{scans} scans" for scans, r in result["admm_scans"] if not r.converged]
    return ", ".join(stuck) + " did not converge" if stuck else None


@study("ablations")
class AblationsStudy:
    """LambdaML design-knob ablations: ADMM scans, Lambda memory, cache node, poll interval"""

    @staticmethod
    def points(ctx):
        return sweep_points(max_epochs=ctx.max_epochs, seed=ctx.seed)

    aggregate = staticmethod(aggregate)
    format_report = staticmethod(format_report)
    claims = (
        Claim("ablations.more_scans_fewer_rounds", "ablation beyond the paper",
              lambda r: _compare(r, "admm_scans", 20, 2, lambda run: run.comm_rounds,
                                 lambda more, fewer: more <= fewer)),
        Claim("ablations.every_scan_count_converges", "ablation beyond the paper",
              _every_scan_count_converges),
        # 1 GB functions get a third of a 3 GB function's vCPU share...
        Claim("ablations.small_lambda_computes_slower", "ablation beyond the paper",
              lambda r: _compare(r, "lambda_memory_gb", 1.0, 3.0,
                                 lambda run: run.breakdown.get("compute"),
                                 lambda small, large: small > 2.5 * large)),
        # ...so they are cheaper per second but not in proportion.
        Claim("ablations.small_lambda_not_much_cheaper", "ablation beyond the paper",
              lambda r: _compare(r, "lambda_memory_gb", 1.0, 3.0,
                                 lambda run: run.cost_total,
                                 lambda small, large: small > 0.7 * large)),
        Claim("ablations.bigger_cache_node_faster_comm", "ablation beyond the paper",
              lambda r: _compare(r, "cache_node", "cache.m5.large", "cache.t3.small",
                                 lambda run: run.breakdown.get("comm"),
                                 lambda big, small: big < small)),
        Claim("ablations.coarser_polling_slower", "ablation beyond the paper",
              lambda r: _compare(r, "poll_interval_s", 1.0, 0.01,
                                 lambda run: run.duration_s,
                                 lambda coarse, fine: coarse > fine)),
    )
