"""Convergence trace artifacts: one JSON file per statistical fingerprint.

Trace schema (version 1)::

    {
      "schema": 1,
      "stat_hash": "<16 hex chars>",           # fingerprint_hash(stat_fingerprint)
      "stat_fingerprint": { ...convergence-relevant config fields... },
      "reduce": "mean" | "sum",
      "ranks": [                               # one entry per worker rank
        {
          "epochs_per_round": float,
          "round_work": [instances, iterations],
          "eval_work": [instances, iterations],
          "losses": [float, ...],              # local loss per evaluation,
                                               # in call order (init first)
          "rounds": int,                       # total communication rounds
          "epochs": float,                     # final epoch_float
          "final_loss": float                  # final *global* loss seen
        }, ...
      ],
      "final_accuracy": float | null,
      "meta": {                                # non-deterministic bookkeeping
        "engine_version": "...",
        "recorded_config_hash": "<hash of the config that recorded it>",
        "compute_seconds": float               # host seconds of numpy work
      }
    }

Everything outside ``meta`` is a pure function of the statistical
fingerprint: any config sharing the fingerprint must record the same
trace bit for bit (the substrate tests assert exactly that), which is
why one trace can be replayed across a whole systems grid.

Writing, reading, validation and the corrupt-file policy live in
:mod:`repro.store`; this module declares the :data:`TRACE` kind and
binds the store's verbs to it.
"""

from __future__ import annotations

import math
from functools import partial

from repro import store
from repro.core.config import config_fingerprint
from repro.errors import SubstrateError
from repro.utils.hashing import fingerprint_hash

TRACE_SCHEMA_VERSION = 1
#: The reductions the lockstep pass folds with (comm/aggregator.py).
REDUCTIONS = ("mean", "sum")

_RANK_KEYS = {
    "epochs_per_round", "round_work", "eval_work",
    "losses", "rounds", "epochs", "final_loss",
}


class TraceError(SubstrateError):
    """A convergence trace is corrupt, partial, or from another schema."""


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_rank(record) -> str | None:
    """What is wrong with one rank record, or None. A value a replay would
    loop on (``epochs_per_round`` 0) or trip over is refused here."""
    if not isinstance(record, dict) or not _RANK_KEYS <= record.keys():
        return "is missing keys"
    epochs_per_round = record["epochs_per_round"]
    if not (_number(epochs_per_round) and 0 < epochs_per_round < math.inf):
        return f"epochs_per_round {epochs_per_round!r} is not finite and > 0"
    for key in ("round_work", "eval_work"):
        work = record[key]
        if not (
            isinstance(work, (list, tuple)) and len(work) == 2
            and all(_number(x) and 0 <= x < math.inf for x in work)
        ):
            return f"{key} {work!r} is not two finite numbers >= 0"
    losses = record["losses"]
    # NaN / inf losses are legal: a diverging run is a deterministic outcome.
    if not (isinstance(losses, list) and all(_number(loss) for loss in losses)):
        return "losses is not a list of numbers"
    rounds = record["rounds"]
    if not (isinstance(rounds, int) and not isinstance(rounds, bool) and rounds >= 0):
        return f"rounds {rounds!r} is not an int >= 0"
    return None


def _check_trace(trace: dict) -> str | None:
    if trace["reduce"] not in REDUCTIONS:
        return f"trace reduce {trace['reduce']!r} is not one of {REDUCTIONS}"
    if not trace["ranks"]:
        return "trace has no per-rank records"
    for rank, record in enumerate(trace["ranks"]):
        problem = _check_rank(record)
        if problem is not None:
            return f"rank {rank} record {problem}"
    if len({len(record["losses"]) for record in trace["ranks"]}) > 1:
        # The replay folds every rank's loss at each evaluation.
        return "ranks recorded unequal numbers of losses"
    return None


TRACE = store.Kind(
    name="trace",
    error=TraceError,
    schema=TRACE_SCHEMA_VERSION,
    shape={
        "stat_hash": str, "stat_fingerprint": dict, "reduce": str,
        "ranks": list, "meta": dict,
    },
    key="stat_hash",
    fingerprint="stat_fingerprint",
    check=_check_trace,
)


def rank_record(algo, losses: list, rounds: int, epochs: float, final_loss: float) -> dict:
    """One rank's trace entry: its algorithm's static round structure
    plus what the run observed (losses in call order, the outcome)."""
    instances, iterations = algo.round_work()
    eval_instances, eval_iterations = algo.eval_work()
    return {
        "epochs_per_round": float(algo.epochs_per_round),
        "round_work": [float(instances), float(iterations)],
        "eval_work": [float(eval_instances), float(eval_iterations)],
        "losses": [float(loss) for loss in losses],
        "rounds": int(rounds),
        "epochs": float(epochs),
        "final_loss": float(final_loss),
    }


def make_trace(config, reduce: str, ranks: list, final_accuracy, compute_seconds: float) -> dict:
    """The schema-1 trace of `config`'s run from its rank records."""
    # Deferred: repro/__init__ -> core -> context -> substrate would
    # otherwise be circular at import time.
    from repro import __version__ as repro_version

    return {
        "schema": TRACE_SCHEMA_VERSION,
        "stat_hash": config.stat_hash(),
        "stat_fingerprint": config.stat_fingerprint(),
        "reduce": reduce,
        "ranks": ranks,
        "final_accuracy": final_accuracy,
        "meta": {
            "engine_version": repro_version,
            "recorded_config_hash": fingerprint_hash(config_fingerprint(config)),
            "compute_seconds": round(compute_seconds, 3),
        },
    }


trace_path = store.document_path
write_trace = partial(store.put, TRACE)  # (traces_dir, trace) -> Path
validate_trace = partial(store.validate, TRACE)  # (trace, expected_hash=None)
load_trace = partial(store.get, TRACE)  # (path, expected_hash=None)
scan_traces = partial(store.scan, TRACE)  # (traces_dir) -> (stat_hash -> trace, corrupt)
