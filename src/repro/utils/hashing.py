"""Content-addressed fingerprint hashing shared by sweep and substrate.

Both the sweep's config hashes (``<hash>.json`` artifacts) and the
substrate's statistical fingerprints (``traces/<stat_hash>.json``)
digest a flat dict of primitive values. The digest must be stable
across numeric spellings: ``TrainingConfig(max_epochs=40)`` and
``max_epochs=40.0`` compare equal, so they must hash equal too — but
``json.dumps`` renders ``40`` vs ``40.0``. Integral floats are
therefore hashed as ints (bools are left alone; they are configuration
flags, not numbers).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

HASH_CHARS = 16  # 64 bits of sha256: ample for any practical grid


def init_fingerprint(config) -> dict:
    """Every init field of a config dataclass (defaults included), JSON-ready.

    Bound as ``config_fingerprint``, ``service_fingerprint`` and
    ``serving_fingerprint`` next to the three config classes.
    """
    return {f.name: getattr(config, f.name) for f in fields(config) if f.init}


def canonical_value(value):
    """Collapse numerically equal spellings before hashing."""
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    return int(value) if value.is_integer() else value


def fingerprint_hash(fingerprint: dict) -> str:
    """Stable hex digest of a flat fingerprint dict."""
    canonical = json.dumps(
        {name: canonical_value(value) for name, value in fingerprint.items()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:HASH_CHARS]
