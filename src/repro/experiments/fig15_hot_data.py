"""Figure 15 (Q2): what if the data is hot (resident in a VM)?

All platforms read YFCC100M (for LR) and Cifar10 (for MobileNet) from
an m5a.12xlarge holding the data instead of S3. IaaS peers pull at
near line rate; Lambda workers are bottlenecked by the per-function
FaaS link and the VM's RPC serving path — so IaaS significantly
outperforms FaaS and the hybrid, consistent with Hellerstein et al.'s
"shipping data to code" critique the paper echoes.
"""

from __future__ import annotations

from repro.analytics.casestudy import q2_hot_data
from repro.experiments.fig14_fast_hybrid import (
    COLUMNS,
    WORKERS_LR,
    WORKERS_MN,
    _row,
    _workload_params,
)
from repro.sweep.study import Claim, Table, study


def run() -> list[dict]:
    rows = []
    # ADMM converges in ~1 round (10 epochs) on YFCC (Figure 9g shows a
    # short training phase), so hot-data loading dominates end to end.
    lr_params = _workload_params("lr", "yfcc100m", epochs=10.0, rounds_per_epoch=0.1)
    for system, (runtime, cost) in q2_hot_data(lr_params, WORKERS_LR).items():
        rows.append(_row("lr/yfcc100m", system, runtime, cost))
    mn_params = _workload_params("mobilenet", "cifar10", epochs=30.0, rounds_per_epoch=47.0)
    for system, (runtime, cost) in q2_hot_data(mn_params, WORKERS_MN).items():
        rows.append(_row("mobilenet/cifar10", system, runtime, cost))
    return rows


def _lr_iaas_well_ahead(rows: list[dict]) -> str | None:
    t = {r["system"]: r["runtime_s"] for r in rows if r["workload"] == "lr/yfcc100m"}
    if t["iaas"] < 0.7 * t["faas"] and t["iaas"] < 0.7 * t["hybrid"]:
        return None
    return ", ".join(f"{s} {t[s]:.4g} s" for s in ("iaas", "faas", "hybrid"))


@study("fig15")
class Fig15Study:
    """Q2 what-if: hot data resident in a serving VM, evaluated analytically"""

    aggregate = staticmethod(lambda artifacts: run())
    report = (
        Table("Figure 15 — Q2: hot data served from an m5a.12xlarge (analytical)", COLUMNS),
    )
    claims = (Claim("fig15.lr_hot_data_favours_iaas", "Fig. 15, §6", _lr_iaas_well_ahead),)
