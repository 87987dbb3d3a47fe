"""Payload sizing for simulated network transfers.

The simulator charges communication time by *byte size*, so every
object that crosses a channel needs a well-defined size. Real numpy
arrays report their true buffer size; experiments that model the
paper's full-scale models (MobileNet 12 MB, ResNet50 89 MB) wrap their
physical arrays in :class:`SizedPayload` to carry the logical size used
for time/cost accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf
from typing import Any

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class SizedPayload:
    """A value paired with an explicit logical wire size in bytes."""

    value: Any
    nbytes: int

    def __post_init__(self) -> None:
        # Written so NaN fails it: a NaN or infinite size would book a
        # non-finite storage op and corrupt the simulated clock.
        if not 0 <= self.nbytes < inf:
            raise ValueError(f"payload size must be >= 0 and finite, got {self.nbytes}")


@lru_cache(maxsize=4096)
def _str_nbytes(text: str) -> int:
    """UTF-8 size of a string, memoized.

    Storage keys and metadata-dict field names recur on every round of
    a long run (hot keys), so the encode is paid once per distinct
    string instead of once per sizing. Strings are immutable, which is
    what makes this cache safe; container sizes are NOT cached because
    lists/dicts can mutate between transfers.
    """
    return len(text.encode("utf-8"))


def payload_nbytes(obj: Any) -> int:
    """Best-effort wire size of `obj` in bytes.

    numpy arrays and scipy sparse matrices report their buffer sizes;
    containers sum their elements; everything else falls back to a
    small constant for bookkeeping metadata. Exact builtin types take
    an O(1) dispatch-table fast path — this function runs once per
    simulated transfer, recursing over containers, so it is on the
    engine's hot path.
    """
    handler = _FAST_PATH.get(type(obj))
    if handler is not None:
        return handler(obj)
    return _payload_nbytes_general(obj)


def _payload_nbytes_general(obj: Any) -> int:
    """Subclass-tolerant slow path (semantics of the original chain)."""
    if isinstance(obj, SizedPayload):
        return obj.nbytes
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if sparse.issparse(obj):
        return int(obj.data.nbytes + obj.indices.nbytes + obj.indptr.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return _str_nbytes(obj)
    if isinstance(obj, (int, float, bool)) or obj is None:
        return 8
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set)):
        return sum(payload_nbytes(item) for item in obj)
    # Unknown object: charge a token amount so transfers are never free.
    return 64


def _dict_nbytes(obj: dict) -> int:
    return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())


def _iterable_nbytes(obj: Any) -> int:
    return sum(payload_nbytes(item) for item in obj)


# Exact-type dispatch for the overwhelmingly common payloads. Subclasses
# (np.float64 under float, IntEnum under int, ...) miss here and fall
# through to the isinstance chain, which yields identical results.
_FAST_PATH: dict[type, Any] = {
    SizedPayload: lambda obj: obj.nbytes,
    np.ndarray: lambda obj: int(obj.nbytes),
    bytes: len,
    bytearray: len,
    str: _str_nbytes,
    int: lambda obj: 8,
    float: lambda obj: 8,
    bool: lambda obj: 8,
    type(None): lambda obj: 8,
    dict: _dict_nbytes,
    list: _iterable_nbytes,
    tuple: _iterable_nbytes,
    set: _iterable_nbytes,
}


def unwrap(obj: Any) -> Any:
    """Return the underlying value of a payload (identity for plain values)."""
    if isinstance(obj, SizedPayload):
        return obj.value
    return obj
