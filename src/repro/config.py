"""Global defaults shared across the library.

The values here are deliberately small and boring: anything with
scientific meaning (bandwidths, prices, model sizes) lives next to the
subsystem that owns it (`storage.services`, `iaas.vm`, `pricing.catalog`,
`models.zoo`). This module only pins down reproducibility knobs and
scaling factors used when shrinking the paper's datasets to
laptop-scale physical arrays.
"""

from __future__ import annotations

import zlib


def stable_hash(text: str) -> int:
    """Process-independent string hash for seed derivation.

    Builtin `hash()` is randomized per process (PYTHONHASHSEED), which
    silently made every derived seed — and thus generated data and any
    knife-edge convergence result — unreproducible across runs. CRC32
    is stable across processes, platforms and Python versions.
    """
    return zlib.crc32(text.encode("utf-8"))

# Seed used by every experiment unless the caller overrides it. All
# randomness in the library flows through `utils.rng.make_rng`, so a
# single seed makes full runs bit-reproducible.
DEFAULT_SEED = 20210620  # SIGMOD'21 opening day.

# Physical down-scaling factor applied to the paper's datasets: we keep
# 1/SCALE of the instances *and* divide batch sizes by SCALE so that the
# number of iterations per epoch is unchanged.
DEFAULT_DATA_SCALE = 100

# Simulated-polling granularity for the synchronous protocol's wait
# loops (seconds). The paper polls the storage service for merged
# files; we charge this much extra latency per wake-up.
DEFAULT_POLL_INTERVAL_S = 0.05
