"""Table 6: the measured constants, re-measured from our substrate.

The analytical constants are inputs (taken from the paper), but the
simulator should *reproduce* them when measured from the outside —
e.g. timing an object GET against the simulated S3 should recover
latency + size/bandwidth. This experiment performs those measurements
through the engine and reports constants side by side, acting as a
self-consistency check between `repro.analytics.constants` and
`repro.storage` / `repro.faas` / `repro.iaas`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytics.constants import TABLE6
from repro.experiments.report import format_table
from repro.faas.runtime import faas_startup_seconds
from repro.iaas.cluster import iaas_startup_seconds
from repro.simulation.commands import Get, Put
from repro.simulation.engine import Engine
from repro.storage.base import ObjectStore
from repro.storage.services import MemcachedStore, S3Store, VMDiskStore
from repro.sweep.study import Claim, study
from repro.utils.serialization import SizedPayload

MB = 1024 * 1024


@dataclass
class ConstantRow:
    symbol: str
    configuration: str
    paper_value: float
    measured_value: float
    unit: str


def _measure_bandwidth(store: ObjectStore, nbytes: int = 64 * MB) -> float:
    """Measured effective bandwidth of one large transfer (bytes/s)."""
    engine = Engine()
    done = {}

    def proc():
        yield Put(store, "bw", SizedPayload(np.zeros(8), nbytes))
        start = engine.now
        yield Get(store, "bw")
        done["get_seconds"] = engine.now - start

    engine.spawn(proc(), "bw-probe")
    engine.run()
    seconds = done["get_seconds"] - store.profile.latency_s
    return nbytes / seconds


def _measure_latency(store: ObjectStore) -> float:
    """Measured small-object round trip (seconds)."""
    engine = Engine()
    done = {}

    def proc():
        yield Put(store, "lat", SizedPayload(np.zeros(1), 8))
        start = engine.now
        yield Get(store, "lat")
        done["get_seconds"] = engine.now - start

    engine.spawn(proc(), "lat-probe")
    engine.run()
    return done["get_seconds"]


def run() -> list[ConstantRow]:
    rows = []
    for w, paper in sorted(TABLE6.t_faas.items()):
        rows.append(ConstantRow("t_F(w)", f"w={w}", paper, faas_startup_seconds(w), "s"))
    for w, paper in sorted(TABLE6.t_iaas.items()):
        rows.append(ConstantRow("t_I(w)", f"w={w}", paper, iaas_startup_seconds(w), "s"))

    s3 = S3Store()
    rows.append(
        ConstantRow("B_S3", "Amazon S3", TABLE6.bandwidth_s3 / MB, _measure_bandwidth(s3) / MB, "MB/s")
    )
    rows.append(ConstantRow("L_S3", "Amazon S3", TABLE6.latency_s3, _measure_latency(S3Store()), "s"))

    ebs = VMDiskStore()
    rows.append(
        ConstantRow("B_EBS", "gp2", TABLE6.bandwidth_ebs / MB, _measure_bandwidth(ebs) / MB, "MB/s")
    )

    mc = MemcachedStore(node="cache.t3.medium")
    mc.available_at = 0.0  # skip the startup wait for the micro-probe
    rows.append(
        ConstantRow(
            "B_EC", "cache.t3.medium", TABLE6.bandwidth_ec_t3 / MB, _measure_bandwidth(mc) / MB, "MB/s"
        )
    )
    mc2 = MemcachedStore(node="cache.t3.medium")
    mc2.available_at = 0.0
    rows.append(
        ConstantRow("L_EC", "cache.t3.medium", TABLE6.latency_ec_t3, _measure_latency(mc2), "s")
    )
    return rows


def format_report(rows: list[ConstantRow]) -> str:
    return format_table(
        "Table 6 — constants: paper vs measured-from-substrate",
        ["symbol", "configuration", "paper", "measured", "unit"],
        [[r.symbol, r.configuration, r.paper_value, r.measured_value, r.unit] for r in rows],
        floatfmt="{:.4g}",
    )


def _constants_near_paper(rows: list[ConstantRow]) -> str | None:
    return "; ".join(
        f"{r.symbol} ({r.configuration}): {r.measured_value:.4g} "
        f"vs paper {r.paper_value:.4g} {r.unit}"
        for r in rows
        if not abs(r.measured_value - r.paper_value) <= 0.25 * abs(r.paper_value)
    ) or None


@study("table6")
class Table6Study:
    """self-consistency check: analytical constants re-measured from the substrate"""

    aggregate = staticmethod(lambda artifacts: run())
    format_report = staticmethod(format_report)
    claims = (Claim("table6.constants_near_paper", "Table 6, §5.4", _constants_near_paper),)
