"""Table 2: Lambda <-> VM parameter-server communication micro-benchmark.

75 MB transfers between Lambda functions (1 GB / 3 GB memory) and a PS
on t2.2xlarge / c5.4xlarge over gRPC and Thrift, with 1 and 10
concurrent workers. Reports data-transmission time and model-update
time, straight from :class:`PSTimingModel` — the same model the hybrid
executor uses, so the micro-benchmark and the end-to-end runs are
consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import format_table
from repro.iaas.ps import PSTimingModel
from repro.iaas.vm import get_instance
from repro.sweep.study import Claim, study

MB = 1024 * 1024
PAYLOAD_BYTES = 75 * MB

CONFIGS = [
    # (n_lambdas, lambda_memory_gb, ps_instance)
    (1, 3.0, "t2.2xlarge"),
    (1, 1.0, "t2.2xlarge"),
    (1, 3.0, "c5.4xlarge"),
    (1, 1.0, "c5.4xlarge"),
    (10, 3.0, "t2.2xlarge"),
    (10, 1.0, "t2.2xlarge"),
    (10, 3.0, "c5.4xlarge"),
    (10, 1.0, "c5.4xlarge"),
]


# (lambdas, mem, instance) -> the paper's gRPC transfer seconds.
PAPER_GRPC_TRANSFER_S = {
    (1, 3.0, "t2.2xlarge"): 2.62,
    (1, 1.0, "t2.2xlarge"): 3.02,
    (1, 3.0, "c5.4xlarge"): 1.85,
    (1, 1.0, "c5.4xlarge"): 2.36,
    (10, 3.0, "t2.2xlarge"): 5.7,
    (10, 3.0, "c5.4xlarge"): 3.7,
}


@dataclass
class RPCRow:
    """One Table-2 row."""

    n_lambdas: int
    lambda_memory_gb: float
    ps_instance: str
    grpc_transfer_s: float
    thrift_transfer_s: float
    grpc_update_s: float
    thrift_update_s: float


def run() -> list[RPCRow]:
    rows = []
    for n, mem, instance in CONFIGS:
        timings = {}
        for rpc in ("grpc", "thrift"):
            model = PSTimingModel(
                instance=get_instance(instance), rpc=rpc, lambda_memory_gb=mem
            )
            timings[rpc] = (
                model.data_transmission_s(PAYLOAD_BYTES, n),
                model.model_update_s(PAYLOAD_BYTES, n),
            )
        rows.append(
            RPCRow(
                n_lambdas=n,
                lambda_memory_gb=mem,
                ps_instance=instance,
                grpc_transfer_s=timings["grpc"][0],
                thrift_transfer_s=timings["thrift"][0],
                grpc_update_s=timings["grpc"][1],
                thrift_update_s=timings["thrift"][1],
            )
        )
    return rows


def format_report(rows: list[RPCRow]) -> str:
    return format_table(
        "Table 2 — Lambda<->PS communication, 75 MB (gRPC / Thrift)",
        ["lambdas", "mem(GB)", "EC2", "xfer gRPC(s)", "xfer Thrift(s)", "upd gRPC(s)", "upd Thrift(s)"],
        [
            [
                r.n_lambdas,
                r.lambda_memory_gb,
                r.ps_instance,
                r.grpc_transfer_s,
                r.thrift_transfer_s,
                r.grpc_update_s,
                r.thrift_update_s,
            ]
            for r in rows
        ],
    )


def _by_config(rows: list[RPCRow]) -> dict[tuple, RPCRow]:
    return {(r.n_lambdas, r.lambda_memory_gb, r.ps_instance): r for r in rows}


def _grpc_transfer_near_paper(rows: list[RPCRow]) -> str | None:
    by_config = _by_config(rows)
    return "; ".join(
        f"{config}: {by_config[config].grpc_transfer_s:.3g} s vs paper {paper} s"
        for config, paper in PAPER_GRPC_TRANSFER_S.items()
        if not abs(by_config[config].grpc_transfer_s - paper) <= 0.45 * paper
    ) or None


def _thrift_slow_transfer_fast_update(rows: list[RPCRow]) -> str | None:
    one = _by_config(rows)[(1, 3.0, "c5.4xlarge")]
    if one.thrift_transfer_s > 8 * one.grpc_transfer_s and one.grpc_update_s > one.thrift_update_s:
        return None
    return (f"transfer Thrift {one.thrift_transfer_s:.3g} s / gRPC {one.grpc_transfer_s:.3g} s, "
            f"update gRPC {one.grpc_update_s:.3g} s / Thrift {one.thrift_update_s:.3g} s")


@study("table2")
class Table2Study:
    """Lambda<->VM parameter-server RPC micro-benchmark (gRPC vs Thrift, 75 MB)"""

    aggregate = staticmethod(lambda artifacts: run())
    format_report = staticmethod(format_report)
    claims = (
        Claim("table2.grpc_transfer_near_paper", "Table 2, §4.4",
              _grpc_transfer_near_paper),
        Claim("table2.thrift_slow_transfer_fast_update", "Table 2, §4.4",
              _thrift_slow_transfer_fast_update),
    )
