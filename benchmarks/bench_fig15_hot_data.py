"""Figure 15 (Q2): hot data served from a VM (analytical)."""

from repro.experiments import fig15_hot_data


def test_fig15_hot_data(write_report):
    rows = fig15_hot_data.run(workers_lr=100, workers_mn=10)
    report = fig15_hot_data.format_report(rows)
    write_report("fig15_hot_data", report)

    lr = {r.system: r for r in rows if r.workload == "lr/yfcc100m"}
    # With 110 GB resident in a VM, IaaS significantly outperforms
    # FaaS and the hybrid on runtime.
    assert lr["iaas"].runtime_s < 0.7 * lr["faas"].runtime_s
    assert lr["iaas"].runtime_s < 0.7 * lr["hybrid"].runtime_s
