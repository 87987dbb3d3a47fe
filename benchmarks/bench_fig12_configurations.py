"""Figure 12: runtime/cost scatter across instance types and learning rates."""

from repro.experiments import fig12_configurations
from repro.sweep.orchestrator import run_sweep


def test_fig12_configurations(write_report):
    points = fig12_configurations.sweep_points(workers_cap=50, max_epochs=20)
    scatters = fig12_configurations.aggregate(run_sweep(points).artifacts)
    report = fig12_configurations.format_report(scatters)
    write_report("fig12_configurations", report)

    by_workload = {s.workload: s for s in scatters}

    # LR/YFCC: some FaaS config beats all IaaS configs on runtime, but
    # is not significantly cheaper.
    lr = by_workload["lr/yfcc100m"]
    best_faas = lr.best("faas", "runtime_s")
    best_iaas_rt = lr.best("iaas", "runtime_s")
    assert best_faas.runtime_s < best_iaas_rt.runtime_s
    cheapest_faas = lr.best("faas", "cost")
    cheapest_iaas = lr.best("iaas", "cost")
    assert cheapest_faas.cost > 0.5 * cheapest_iaas.cost

    # MobileNet: a GPU IaaS point dominates FaaS on both axes.
    mn = by_workload["mobilenet/cifar10"]
    gpu_points = [p for p in mn.points if "g4dn" in p.label or "g3s" in p.label]
    faas_points = [p for p in mn.points if p.platform == "faas"]
    best_gpu = min(gpu_points, key=lambda p: p.runtime_s)
    assert all(best_gpu.runtime_s < f.runtime_s for f in faas_points)
    assert all(best_gpu.cost < f.cost for f in faas_points)
