"""Where and how large a Figure-5 checkpoint is.

A worker's checkpoint lives under one storage key per rank (the latest
write wins). On the simulated wire it is its size alone — the logical
model size plus a small metadata envelope (``SizedPayload(None, n)``);
a successor resumes from the fault injector's ``RoundState``.
"""

from __future__ import annotations

CHECKPOINT_METADATA_BYTES = 512


def checkpoint_key(rank: int) -> str:
    """Storage key of worker `rank`'s checkpoint (latest wins)."""
    return f"ckpt/worker_{rank:05d}"


def checkpoint_bytes(logical_param_bytes: int) -> int:
    """Simulated wire size of a checkpoint."""
    return logical_param_bytes + CHECKPOINT_METADATA_BYTES
