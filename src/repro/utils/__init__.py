"""Shared helpers: RNG, serialization sizing, scorecard statistics."""

from repro.utils.rng import make_rng
from repro.utils.serialization import payload_nbytes

__all__ = ["make_rng", "payload_nbytes"]
