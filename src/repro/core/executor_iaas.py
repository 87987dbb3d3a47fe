"""IaaS executors: distributed PyTorch (and Angel) worker loops.

Workers run the same round-based algorithms as the FaaS executors but
synchronise through MPI/Gloo ring AllReduce between VMs instead of a
storage channel — the architectural difference of Figure 1. The Angel
variant inherits this loop with slower start-up, HDFS-style loading and
a compute penalty (see `repro.core.config`).
"""

from __future__ import annotations

import numpy as np

from repro.core.bsp_loop import bsp_rounds
from repro.core.config import ANGEL_LOAD_FACTOR
from repro.core.context import JobContext
from repro.simulation.commands import Get, Sleep


def iaas_worker(ctx: JobContext, rank: int):
    """Distributed-PyTorch-style worker (generator for the engine)."""
    cfg = ctx.config
    algo = ctx.stats(rank)  # substrate view: exact, per-rank, or replay

    yield Sleep(ctx.startup_s, "startup")
    load_started = ctx.engine.now
    yield Get(ctx.data_store, ctx.partition_key(rank), category="load")
    if cfg.system == "angel":
        # Angel reads from HDFS, which Figure 10 shows is ~4x slower
        # than the S3 path used by the other systems.
        s3_seconds = ctx.engine.now - load_started
        yield Sleep(s3_seconds * (ANGEL_LOAD_FACTOR - 1.0), "load")

    def exchange(round_id: str, wire: np.ndarray, nbytes: int):
        merged = yield ctx.mpi.allreduce(wire, nbytes, reduce=algo.reduce)
        return merged

    outcome = yield from bsp_rounds(ctx, rank, exchange)
    return outcome
