"""Table 2: Lambda <-> VM parameter-server RPC micro-benchmark."""

import pytest

from repro.experiments import table2_hybrid_rpc

# (lambdas, mem, instance) -> paper-measured gRPC transfer seconds.
PAPER_GRPC_TRANSFER = {
    (1, 3.0, "t2.2xlarge"): 2.62,
    (1, 1.0, "t2.2xlarge"): 3.02,
    (1, 3.0, "c5.4xlarge"): 1.85,
    (1, 1.0, "c5.4xlarge"): 2.36,
    (10, 3.0, "t2.2xlarge"): 5.7,
    (10, 3.0, "c5.4xlarge"): 3.7,
}


def test_table2_hybrid_rpc(write_report):
    rows = table2_hybrid_rpc.run()
    report = table2_hybrid_rpc.format_report(rows)
    write_report("table2_hybrid_rpc", report)

    by_config = {(r.n_lambdas, r.lambda_memory_gb, r.ps_instance): r for r in rows}
    for config, paper_value in PAPER_GRPC_TRANSFER.items():
        ours = by_config[config].grpc_transfer_s
        assert ours == pytest.approx(paper_value, rel=0.45), (config, ours, paper_value)
    # Thrift is an order of magnitude slower at transfers but faster at
    # model updates (paper's right-hand columns).
    one = by_config[(1, 3.0, "c5.4xlarge")]
    assert one.thrift_transfer_s > 8 * one.grpc_transfer_s
    assert one.grpc_update_s > one.thrift_update_s
