"""Figure 6: the dataset tables (logical specs + physical stand-ins)."""

from __future__ import annotations

from repro.data.datasets import DATASETS
from repro.data.synth import generate
from repro.sweep.study import Claim, Table, study


def run() -> list[dict]:
    rows = []
    for name, spec in DATASETS.items():
        split = generate(name, seed=0)
        rows.append({
            "dataset": name,
            "size_mb": spec.size_mb,
            "instances": spec.n_instances,
            "features": spec.n_features,
            "sparse": spec.sparse,
            "physical_rows": split.n_train + split.y_val.shape[0],
        })
    return rows


@study("datasets")
class DatasetsStudy:
    """Figure 6 dataset table: logical specs next to the physical stand-ins"""

    aggregate = staticmethod(lambda artifacts: run())
    report = (
        Table("Figure 6 — datasets (logical spec / physical stand-in)", (
            ("dataset", "dataset"),
            ("size", lambda r: f"{r['size_mb']:.0f} MB"),
            ("#instances", "instances"),
            ("#features", "features"),
            ("sparse", "sparse"),
            ("physical rows", "physical_rows"),
        )),
    )
    claims = (
        Claim("datasets.five_datasets", "Fig. 6",
              lambda rows: None if len(rows) == 5 else f"{len(rows)} datasets"),
    )
