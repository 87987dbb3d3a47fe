"""Vector aggregation helpers shared by the communication patterns."""

from __future__ import annotations

import numpy as np

from repro.errors import CommunicationError


def reduce_vectors(vectors: list[np.ndarray], reduce: str) -> np.ndarray:
    """Element-wise mean or sum of equal-length vectors.

    The fold is an explicit sequential accumulation in list order, not
    ``np.stack(...).mean(axis=0)``: numpy's reductions pick a summation
    strategy (sequential vs pairwise/unrolled) from the *array shape*,
    so the same contributions reduced as ``(w, 1)`` chunks vs one
    ``(w, d)`` block can differ in the last ulp once ``w > 8``. Every
    aggregation path (AllReduce leader, ScatterReduce slice reducers,
    the IaaS collective) folds through here, which makes the merged
    floats a function of the contribution *order alone* — independent
    of how a pattern chunks the vector. The replay substrate's
    trace-sharing across patterns/platforms relies on exactly that.
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


def split_chunks(vector: np.ndarray, parts: int) -> list[np.ndarray]:
    """Split a vector into `parts` nearly equal chunks (ScatterReduce)."""
    if parts < 1:
        raise CommunicationError(f"parts must be >= 1, got {parts}")
    # np.array_split's views as plain slices, without its ~0.2 ms a call at W=128.
    vector = np.asarray(vector)
    size, extra = divmod(len(vector), parts)
    bounds = [i * size + min(i, extra) for i in range(parts + 1)]
    return [vector[start:end] for start, end in zip(bounds, bounds[1:])]
