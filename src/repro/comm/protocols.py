"""Synchronization protocols (paper Section 3.2.4).

*Synchronous* (BSP): realised by the patterns themselves — both phases
poll on file names with one command, WaitKeyCount: the merging phase
waits until the round's part files are as many as the workers, the
updating phase for a count of one on the merged file's name. Executors
simply run one pattern exchange per round.

*Asynchronous* (the paper's S-ASP, after SIREN): one global model lives
in the storage channel; each worker independently reads it, trains
locally, and writes it back, with no coordination. The helpers below
implement the read/write halves plus the stop-flag convention workers
use to learn that someone reached the loss threshold.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.commands import Get, ListKeys, Put
from repro.storage.base import ObjectStore
from repro.utils.serialization import SizedPayload

GLOBAL_MODEL_KEY = "global/model"
STOP_KEY = "global/stop"


def seed_global_model(store: ObjectStore, vector: np.ndarray, logical_nbytes: int) -> None:
    """Place the initial global model (driver-side, zero simulated time)."""
    store.seed_object(GLOBAL_MODEL_KEY, SizedPayload(vector, logical_nbytes))


def async_read_model(store: ObjectStore):
    """Generator: fetch the current global model (possibly stale)."""
    obj = yield Get(store, GLOBAL_MODEL_KEY)
    return np.asarray(obj.value, dtype=np.float64)


def async_write_model(store: ObjectStore, vector: np.ndarray, logical_nbytes: int):
    """Generator: publish a new global model (last writer wins)."""
    yield Put(store, GLOBAL_MODEL_KEY, SizedPayload(vector, logical_nbytes))
    return None


def async_signal_stop(store: ObjectStore):
    """Generator: tell the other workers the loss threshold was reached."""
    yield Put(store, STOP_KEY, SizedPayload(None, 8))
    return None


def async_should_stop(store: ObjectStore):
    """Generator: check whether any worker has signalled convergence."""
    keys = yield ListKeys(store, STOP_KEY)
    return bool(keys)
