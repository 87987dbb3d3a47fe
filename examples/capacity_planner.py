"""Capacity planner: should *your* workload train on FaaS or IaaS?

Uses the paper's Section-5.3 analytical model plus the sampling-based
epochs estimator to answer, for a chosen workload:

* how many workers minimise runtime / cost on each platform,
* where the FaaS/IaaS crossover falls,
* what the hybrid (PS-on-VM) architecture would do, today and with a
  hypothetical 10 Gbps FaaS-IaaS link (Figure 14's what-if).

Run:  python examples/capacity_planner.py
"""

from __future__ import annotations

from repro.api import AnalyticalModel, HybridModel, SamplingEstimator, WorkloadParams

MB = 1024 * 1024


def build_params(model: str, dataset: str, algorithm: str, lr: float, threshold: float):
    """Estimate epochs from a 10% sample, then assemble model inputs."""
    estimator = SamplingEstimator(sample_fraction=0.1, seed=7)
    estimate = estimator.estimate(model, dataset, algorithm, lr=lr, threshold=threshold,
                                  batch_size=100)
    print(
        f"sampling estimator: {estimate.epochs:.1f} epochs to loss {threshold}"
        f" ({'converged' if estimate.converged else 'cap hit'})"
    )
    return WorkloadParams.from_zoo(
        model, dataset, estimate.epochs,
        rounds_per_epoch=0.1 if algorithm == "admm" else 1.0,
    )


def main() -> None:
    params = build_params("lr", "higgs", "admm", lr=0.05, threshold=0.66)
    model = AnalyticalModel(params)
    hybrid = HybridModel(params)
    hybrid_10g = HybridModel(
        params, faas_vm_bandwidth=1250 * MB, serdes_bandwidth=1250 * MB
    )

    print(f"\n{'w':>4} {'FaaS(s)':>9} {'FaaS($)':>8} {'IaaS(s)':>9} {'IaaS($)':>8} "
          f"{'Hybrid(s)':>10} {'Hybrid10G(s)':>13}")
    best = {"faas": None, "iaas": None}
    for w in (1, 2, 5, 10, 20, 50, 100, 150):
        faas_s, faas_c = model.faas_seconds(w), model.faas_cost(w)
        iaas_s, iaas_c = model.iaas_seconds(w), model.iaas_cost(w)
        print(
            f"{w:>4} {faas_s:>9.1f} {faas_c:>8.4f} {iaas_s:>9.1f} {iaas_c:>8.4f} "
            f"{hybrid.seconds(w):>10.1f} {hybrid_10g.seconds(w):>13.1f}"
        )
        if best["faas"] is None or faas_s < best["faas"][1]:
            best["faas"] = (w, faas_s, faas_c)
        if best["iaas"] is None or iaas_s < best["iaas"][1]:
            best["iaas"] = (w, iaas_s, iaas_c)

    fw, fs, fc = best["faas"]
    iw, is_, ic = best["iaas"]
    print(f"\nbest FaaS: w={fw}: {fs:.1f}s at ${fc:.4f}")
    print(f"best IaaS: w={iw}: {is_:.1f}s at ${ic:.4f}")
    verdict = "FaaS wins on runtime" if fs < is_ else "IaaS wins on runtime"
    cheaper = "FaaS cheaper" if fc < ic else "IaaS cheaper"
    print(f"=> {verdict}; {cheaper}.")


if __name__ == "__main__":
    main()
