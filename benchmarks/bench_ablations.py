"""Ablations over LambdaML's design choices (beyond the paper's tables).

The system is sensitive to several constants; these benches quantify
each one on the LR/Higgs workload:

* ADMM local scans per round (communication/computation tradeoff);
* Lambda memory size (vCPU share scales with memory);
* ElastiCache node type (bandwidth tiers);
* synchronous-protocol poll interval (storage polling overhead).
"""

from repro.core.config import TrainingConfig
from repro.core.driver import train
from repro.experiments.report import format_table


def _cfg(**overrides) -> TrainingConfig:
    base = dict(
        model="lr", dataset="higgs", algorithm="admm", system="lambdaml",
        workers=10, channel="s3", batch_size=10_000, lr=0.05,
        loss_threshold=0.66, max_epochs=40, seed=20210620,
    )
    base.update(overrides)
    return TrainingConfig(**base)


def _sweep_admm_scans():
    rows = []
    for scans in (2, 5, 10, 20):
        result = train(_cfg(admm_scans=scans))
        rows.append([scans, result.converged, result.comm_rounds,
                     result.epochs, result.duration_s, result.cost_total])
    return rows


def test_ablation_admm_scans(write_report):
    rows = _sweep_admm_scans()
    report = format_table(
        "Ablation — ADMM local scans per round (LR, Higgs, W=10)",
        ["scans", "converged", "rounds", "epochs", "time(s)", "cost($)"],
        rows,
    )
    write_report("ablation_admm_scans", report)
    by_scans = {r[0]: r for r in rows}
    # More scans per round -> fewer communication rounds.
    assert by_scans[20][2] <= by_scans[2][2]
    # Everything still converges.
    assert all(r[1] for r in rows)


def _sweep_lambda_memory():
    rows = []
    for memory_gb in (1.0, 2.0, 3.0):
        result = train(_cfg(lambda_memory_gb=memory_gb, loss_threshold=None, max_epochs=10))
        rows.append([memory_gb, result.breakdown.get("compute"),
                     result.duration_s, result.cost_total])
    return rows


def test_ablation_lambda_memory(write_report):
    rows = _sweep_lambda_memory()
    report = format_table(
        "Ablation — Lambda memory size (vCPU share), 10 fixed epochs",
        ["memory (GB)", "compute(s)", "time(s)", "cost($)"],
        rows,
    )
    write_report("ablation_lambda_memory", report)
    by_mem = {r[0]: r for r in rows}
    # 1 GB functions get 1/3 the vCPU share: ~3x the compute time.
    assert by_mem[1.0][1] > 2.5 * by_mem[3.0][1]
    # Cost does not drop proportionally: cheaper-per-second but slower.
    assert by_mem[1.0][3] > 0.7 * by_mem[3.0][3]


def _sweep_cache_nodes():
    rows = []
    for node in ("cache.t3.small", "cache.t3.medium", "cache.m5.large"):
        result = train(
            _cfg(
                model="mobilenet", dataset="cifar10", algorithm="ga_sgd",
                channel="memcached", cache_node=node, channel_prestarted=True,
                batch_size=128, batch_scope="per_worker",
                loss_threshold=None, max_epochs=1,
            )
        )
        rows.append([node, result.breakdown.get("comm"), result.duration_s,
                     result.cost_total])
    return rows


def test_ablation_cache_node(write_report):
    rows = _sweep_cache_nodes()
    report = format_table(
        "Ablation — ElastiCache node tier (MobileNet, 1 epoch)",
        ["node", "comm(s)", "time(s)", "cost($)"],
        rows,
    )
    write_report("ablation_cache_node", report)
    by_node = {r[0]: r for r in rows}
    # Bigger nodes move 12 MB models faster.
    assert by_node["cache.m5.large"][1] < by_node["cache.t3.small"][1]


def _sweep_poll_interval():
    rows = []
    for poll in (0.01, 0.05, 0.2, 1.0):
        result = train(
            _cfg(algorithm="ma_sgd", loss_threshold=None, max_epochs=5,
                 poll_interval_s=poll)
        )
        rows.append([poll, result.breakdown.get("wait") + result.breakdown.get("merge"),
                     result.duration_s])
    return rows


def test_ablation_poll_interval(write_report):
    rows = _sweep_poll_interval()
    report = format_table(
        "Ablation — synchronous-protocol poll interval (MA-SGD, 5 epochs)",
        ["poll (s)", "wait+merge (s)", "time(s)"],
        rows,
    )
    write_report("ablation_poll_interval", report)
    # Coarser polling wastes more time per synchronisation point.
    assert rows[-1][2] > rows[0][2]
