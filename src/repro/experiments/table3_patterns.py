"""Table 3: AllReduce vs ScatterReduce over the storage channel.

Measures the simulated time of a *single* aggregation exchange (the
paper reports per-round communication time) for three model sizes:
LR on Higgs (224 B), MobileNet (12 MB) and ResNet50 (89 MB), using S3.

Expected shape: for tiny and medium models the two patterns tie (or
ScatterReduce loses slightly to its extra partitioning requests); for
ResNet50 the single leader of AllReduce becomes the bottleneck and
ScatterReduce is about twice as fast.
"""

from __future__ import annotations

from repro.comm.patterns import allreduce, scatter_reduce
from repro.models.zoo import get_model_info
from repro.simulation.engine import Engine
from repro.storage.services import make_channel
from repro.sweep.study import Claim, Table, study

CASES = [
    # (label, model, dataset, workers)
    ("LR,Higgs,W=50", "lr", "higgs", 50),
    ("MobileNet,Cifar10,W=10", "mobilenet", "cifar10", 10),
    ("ResNet,Cifar10,W=10", "resnet50", "cifar10", 10),
]


def measure_exchange(pattern_name: str, workers: int, logical_nbytes: int) -> float:
    """Simulated wall time for one exchange across `workers` workers."""
    engine = Engine()
    channel = make_channel("s3")
    pattern = allreduce if pattern_name == "allreduce" else scatter_reduce
    for rank in range(workers):
        engine.spawn(
            pattern(channel.store, rank, workers, "bench", logical_nbytes), name=f"w{rank}"
        )
    engine.run()
    return engine.now


def run() -> list[dict]:
    rows = []
    for label, model, dataset, workers in CASES:
        nbytes = get_model_info(model, dataset).param_bytes
        rows.append({
            "label": label,
            "model_bytes": nbytes,
            "allreduce_s": measure_exchange("allreduce", workers, nbytes),
            "scatter_reduce_s": measure_exchange("scatterreduce", workers, nbytes),
        })
    return rows


def _times(rows: list[dict], label: str, holds) -> str | None:
    """``None`` when ``holds(allreduce_s, scatter_reduce_s)`` for ``label``."""
    row = next(r for r in rows if r["label"] == label)
    ar, sr = row["allreduce_s"], row["scatter_reduce_s"]
    if holds(ar, sr):
        return None
    return f"{label}: AllReduce {ar:.3g} s, ScatterReduce {sr:.3g} s"


@study("table3")
class Table3Study:
    """AllReduce vs ScatterReduce single-exchange timing over S3 (engine micro-probe)"""

    aggregate = staticmethod(lambda artifacts: run())
    report = (
        Table("Table 3 — communication patterns over S3 (one exchange)", (
            ("workload", "label"),
            ("model size (B)", "model_bytes"),
            ("AllReduce (s)", "allreduce_s"),
            ("ScatterReduce (s)", "scatter_reduce_s"),
        )),
    )
    # Paper: 9.2 s vs 9.8 s (LR), 3.3 s vs 3.1 s (MobileNet), 17.3 s vs 8.5 s (ResNet).
    claims = (
        Claim("table3.scatter_reduce_no_better_on_tiny_models", "Table 3, §4.3",
              lambda rows: _times(rows, "LR,Higgs,W=50", lambda ar, sr: sr >= ar * 0.8)),
        Claim("table3.scatter_reduce_wins_on_resnet", "Table 3, §4.3",
              lambda rows: _times(rows, "ResNet,Cifar10,W=10", lambda ar, sr: ar / sr > 1.5)),
        Claim("table3.mobilenet_roughly_even", "Table 3, §4.3",
              lambda rows: _times(rows, "MobileNet,Cifar10,W=10",
                                  lambda ar, sr: 0.5 < ar / sr < 2.5)),
    )
