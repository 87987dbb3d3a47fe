"""The sized payload every simulated transfer carries.

The simulator charges communication time by *byte size*, and a
transfer's size is its sender's: every put, seeded object and
collective states its byte count, the paper's *logical* size (a model
of m bytes, MobileNet's 12 MB, ResNet50's 89 MB), whatever Python
value rides along. A put of a value that is not a :class:`SizedPayload`
is refused; nothing is sized by inspecting its type.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Any


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
