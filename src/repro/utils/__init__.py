"""Shared helpers: RNG, sized payloads, scorecard statistics."""

from repro.utils.rng import make_rng

__all__ = ["make_rng"]
