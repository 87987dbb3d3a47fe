"""Checkpoint contents for the limited-lifetime mechanism (Figure 5).

A checkpoint carries everything a successor function needs to continue
the same partition: the model/algorithm parameters, the training
position (epoch + round), and the most recent local loss. Its wire
size is the logical model size plus a small metadata envelope. The
simulated executors put only that size (``SizedPayload(None, n)``);
a successor resumes from the fault injector's ``RoundState``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHECKPOINT_METADATA_BYTES = 512


@dataclass
class Checkpoint:
    """Snapshot of one worker's training position."""

    rank: int
    epoch_float: float
    round_index: int
    params: np.ndarray
    last_local_loss: float

    def key(self) -> str:
        return self.key_for(self.rank)

    @staticmethod
    def key_for(rank: int) -> str:
        """Storage key of worker `rank`'s checkpoint (latest wins)."""
        return f"ckpt/worker_{rank:05d}"


def checkpoint_bytes(logical_param_bytes: int) -> int:
    """Simulated wire size of a checkpoint."""
    return logical_param_bytes + CHECKPOINT_METADATA_BYTES
