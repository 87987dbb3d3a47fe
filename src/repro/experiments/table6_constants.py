"""Table 6: the measured constants, re-measured from our substrate.

The simulator is configured with the paper's Table-6 values: the S3,
EBS and ElastiCache envelopes of `repro.storage.services` and the
start-up anchors of `repro.faas.runtime` / `repro.iaas.cluster`, which
the analytical model reads too. This study checks that the engine
re-measures each envelope it is configured with from the outside:
timing an object GET against a simulated store should recover latency +
size/bandwidth, and t_F(w) / t_I(w) should return each anchor at the
worker counts the paper measured.
"""

from __future__ import annotations

from repro.faas.runtime import STARTUP_ANCHORS as FAAS_ANCHORS
from repro.faas.runtime import faas_startup_seconds
from repro.iaas.cluster import STARTUP_ANCHORS as IAAS_ANCHORS
from repro.iaas.cluster import iaas_startup_seconds
from repro.simulation.commands import Get, Put
from repro.simulation.engine import Engine
from repro.storage.base import ObjectStore
from repro.storage.services import MemcachedStore, S3Store, VMDiskStore
from repro.sweep.study import Claim, Table, study
from repro.utils.serialization import SizedPayload

MB = 1024 * 1024


def _measure_bandwidth(store: ObjectStore, nbytes: int = 64 * MB) -> float:
    """Measured effective bandwidth of one large transfer (bytes/s)."""
    engine = Engine()
    done = {}

    def proc():
        yield Put(store, "bw", SizedPayload(None, nbytes))
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
        yield Put(store, "lat", SizedPayload(None, 8))
        start = engine.now
        yield Get(store, "lat")
        done["get_seconds"] = engine.now - start

    engine.spawn(proc(), "lat-probe")
    engine.run()
    return done["get_seconds"]


def _row(symbol: str, configuration: str, paper: float, measured: float, unit: str) -> dict:
    return {"symbol": symbol, "configuration": configuration, "paper_value": paper,
            "measured_value": measured, "unit": unit}


# The worker counts the paper measured start-up at.
PAPER_WORKERS = (10, 50, 100, 200)


def _memcached() -> MemcachedStore:
    store = MemcachedStore(node="cache.t3.medium")
    store.available_at = 0.0  # skip the startup wait for the micro-probe
    return store


def run() -> list[dict]:
    rows = []
    for symbol, anchors, startup in (("t_F(w)", FAAS_ANCHORS, faas_startup_seconds),
                                     ("t_I(w)", IAAS_ANCHORS, iaas_startup_seconds)):
        for w, configured in anchors:
            if w in PAPER_WORKERS:
                rows.append(_row(symbol, f"w={w}", configured, startup(w), "s"))

    # One fresh store per probe; EBS's latency is not a Table-6 row.
    for bandwidth, latency, configuration, make in (
        ("B_S3", "L_S3", "Amazon S3", S3Store),
        ("B_EBS", None, "gp2", VMDiskStore),
        ("B_EC", "L_EC", "cache.t3.medium", _memcached),
    ):
        store = make()
        rows.append(_row(bandwidth, configuration, store.profile.bandwidth_bps / MB,
                         _measure_bandwidth(store) / MB, "MB/s"))
        if latency is not None:
            store = make()
            rows.append(_row(latency, configuration, store.profile.latency_s,
                             _measure_latency(store), "s"))
    return rows


def _constants_near_paper(rows: list[dict]) -> str | None:
    return "; ".join(
        f"{r['symbol']} ({r['configuration']}): {r['measured_value']:.4g} "
        f"vs paper {r['paper_value']:.4g} {r['unit']}"
        for r in rows
        if not abs(r["measured_value"] - r["paper_value"]) <= 0.25 * abs(r["paper_value"])
    ) or None


@study("table6")
class Table6Study:
    """self-consistency check: analytical constants re-measured from the substrate"""

    aggregate = staticmethod(lambda artifacts: run())
    report = (
        Table("Table 6 — constants: paper vs measured-from-substrate", (
            ("symbol", "symbol"),
            ("configuration", "configuration"),
            # Four significant figures: a constant is read against the paper's.
            ("paper", lambda r: f"{r['paper_value']:.4g}"),
            ("measured", lambda r: f"{r['measured_value']:.4g}"),
            ("unit", "unit"),
        )),
    )
    claims = (Claim("table6.constants_near_paper", "Table 6, §5.4", _constants_near_paper),)
