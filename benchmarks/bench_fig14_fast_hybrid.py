"""Figure 14 (Q1): 10 Gbps FaaS<->IaaS what-if (analytical)."""

from repro.experiments import fig14_fast_hybrid


def test_fig14_fast_hybrid(write_report):
    rows = fig14_fast_hybrid.run(workers_lr=100, workers_mn=10)
    report = fig14_fast_hybrid.format_report(rows)
    write_report("fig14_fast_hybrid", report)

    lr = {r.system: r for r in rows if r.workload == "lr/yfcc100m"}
    mn = {r.system: r for r in rows if r.workload == "mobilenet/cifar10"}

    # 10 Gbps makes the hybrid much faster than today's hybrid.
    assert lr["hybrid-10g"].runtime_s < lr["hybrid"].runtime_s
    assert mn["hybrid-10g"].runtime_s < mn["hybrid"].runtime_s
    # For LR/YFCC even the 10G hybrid loses to pure FaaS (PS VM boot + SGD).
    assert lr["faas"].runtime_s < lr["hybrid-10g"].runtime_s
    # For MobileNet the 10G hybrid beats CPU IaaS but not the GPU.
    assert mn["hybrid-10g"].runtime_s < mn["iaas"].runtime_s
    assert mn["iaas-gpu"].runtime_s < mn["hybrid-10g"].runtime_s
    # The hypothetical GPU-FaaS at g3s pricing undercuts GPU IaaS cost.
    assert mn["gpu-faas (hypothetical)"].cost < mn["iaas-gpu"].cost
