"""The rank-order fold every BSP statistic is merged with."""

from __future__ import annotations

import numpy as np

from repro.errors import CommunicationError


def reduce_vectors(vectors: list[np.ndarray], reduce: str) -> np.ndarray:
    """Element-wise mean or sum of equal-length vectors.

    The fold is an explicit sequential accumulation in list order, not
    ``np.stack(...).mean(axis=0)``: numpy's reductions pick a summation
    strategy (sequential vs pairwise/unrolled) from the *array shape*,
    so a stacked reduction can differ from a per-rank loop in the last
    ulp once ``w > 8``. The lockstep pass (:mod:`repro.substrate.lockstep`)
    is its only caller: it folds each round's payloads and each
    evaluation's losses here, in rank order, before the engine starts.
    The communication patterns and the IaaS collective move byte counts
    only, so a BSP trajectory cannot depend on the pattern, channel or
    platform that times it. Float32 vectors are folded as they come:
    the float64 accumulator widens each one exactly.
    """
    if not vectors:
        raise CommunicationError("nothing to reduce")
    first = vectors[0]
    for v in vectors[1:]:
        if v.shape != first.shape:
            raise CommunicationError(
                f"shape mismatch in reduction: {v.shape} vs {first.shape}"
            )
    acc = np.array(vectors[0], dtype=np.float64, copy=True)
    for v in vectors[1:]:
        acc += v  # the ufunc widens to float64 exactly, without a temporary
    if reduce == "mean":
        acc /= len(vectors)
        return acc
    if reduce == "sum":
        return acc
    raise CommunicationError(f"unknown reduction {reduce!r}; expected mean|sum")

