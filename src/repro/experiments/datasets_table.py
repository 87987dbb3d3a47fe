"""Figure 6: the dataset tables (logical specs + physical stand-ins)."""

from __future__ import annotations

from repro.data.datasets import DATASETS
from repro.data.synth import generate
from repro.experiments.report import format_table
from repro.sweep.study import study

MICRO = ("cifar10", "rcv1", "higgs")
END_TO_END = ("cifar10", "yfcc100m", "criteo")


def run(scale: int | None = None, seed: int = 0):
    rows = []
    for name, spec in DATASETS.items():
        split = generate(name, scale=scale, seed=seed)
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
