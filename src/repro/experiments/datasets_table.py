"""Figure 6: the dataset tables (logical specs + physical stand-ins)."""

from __future__ import annotations

from repro.data.datasets import DATASETS
from repro.data.synth import generate
from repro.experiments.report import format_table
from repro.sweep.study import Claim, study


def run():
    rows = []
    for name, spec in DATASETS.items():
        split = generate(name, seed=0)
        rows.append(
            [
                name,
                f"{spec.size_mb:.0f} MB",
                spec.n_instances,
                spec.n_features,
                spec.sparse,
                split.n_train + split.y_val.shape[0],
            ]
        )
    return rows


def format_report(rows) -> str:
    return format_table(
        "Figure 6 — datasets (logical spec / physical stand-in)",
        ["dataset", "size", "#instances", "#features", "sparse", "physical rows"],
        rows,
    )


@study("datasets")
class DatasetsStudy:
    """Figure 6 dataset table: logical specs next to the physical stand-ins"""

    aggregate = staticmethod(lambda artifacts: run())
    format_report = staticmethod(format_report)
    claims = (
        Claim("datasets.five_datasets", "Fig. 6",
              lambda rows: None if len(rows) == 5 else f"{len(rows)} datasets"),
    )
