"""Figure 11: runtime vs cost as worker counts scale."""

from repro.experiments import fig11_scaling
from repro.sweep.orchestrator import run_sweep


def test_fig11_scaling(write_report):
    points = fig11_scaling.lr_higgs_points(
        faas_workers=(10, 30, 50, 100),
        iaas_workers=(1, 2, 5, 10, 20),
        max_epochs=40,
    ) + fig11_scaling.mobilenet_points(
        faas_workers=(5, 10, 20),
        gpu_workers=(1, 2, 5, 10),
        max_epochs=6,
    )
    profiles = fig11_scaling.aggregate(run_sweep(points).artifacts)
    report = fig11_scaling.format_report(profiles)
    write_report("fig11_scaling", report)

    lr, mn = profiles
    faas_points = [p for p in lr.points if p.system == "faas"]
    iaas_points = [p for p in lr.points if p.system == "iaas"]
    # FaaS reaches a lower runtime than any IaaS configuration...
    assert min(p.runtime_s for p in faas_points) < min(p.runtime_s for p in iaas_points)
    # ...but is never significantly cheaper than the cheapest IaaS.
    assert min(p.cost for p in faas_points) > 0.5 * min(p.cost for p in iaas_points)
    # More workers cost more at the top end of the sweep.
    costs_by_w = sorted((p.workers, p.cost) for p in faas_points)
    assert costs_by_w[-1][1] > costs_by_w[0][1]

    # MobileNet: some GPU IaaS point dominates every FaaS point.
    gpu = [p for p in mn.points if p.system == "iaas-gpu"]
    faas_mn = [p for p in mn.points if p.system == "faas"]
    best_gpu = min(gpu, key=lambda p: p.runtime_s)
    assert all(
        best_gpu.runtime_s < f.runtime_s and best_gpu.cost < f.cost for f in faas_mn
    )
