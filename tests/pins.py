"""Every pinned value of the tests: one registry, one data file.

A pin is a named value that must not move: a clock, a bill, a dispatch
profile, a loss trajectory, a document's digest, a report's lines. The
test file that checks a pin registers the function that computes it and
compares its own run with ``pinned(name)`` exactly; ``data/pins.json``
stores every pin. After an intentional change to what a pin measures,
never to paper over a diff you cannot explain, re-record all of them:

    PYTHONPATH=src python tests/pins.py record

It prints one line per moved pin: its name, then where it first differs
(a key path, or a report line's index) and the old and new value there.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import re
import sys
from functools import partial
from pathlib import Path

TESTS = Path(__file__).parent
PINS_PATH = TESTS / "data" / "pins.json"
# Seven pins were recorded on AVX-512 kernels and move on others (README,
# "Determinism across interpreters"); either variable forces the kernels.
FORCED_KERNELS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
REGISTRY = {}


def register(name: str, *, keys=None):
    """Decorate the function computing pin ``name`` in JSON types; given
    ``keys``, ``fn(key)`` computes pin ``<name>.<key>`` for each key."""
    def decorate(fn):
        computes = ({name: fn} if keys is None
                    else {f"{name}.{key}": partial(fn, key) for key in keys})
        for pin, compute in computes.items():
            if pin in REGISTRY:
                raise ValueError(f"pin {pin!r} is registered twice")
            REGISTRY[pin] = compute
        return fn
    return decorate


def pinned(name: str):
    return json.loads(PINS_PATH.read_text())[name]


def digest(document) -> str:
    """sha256 of a document's canonical JSON, ``json.dumps(sort_keys=True)``."""
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def registered() -> dict:
    """Every pin, once each test module that imports this one is imported."""
    for path in sorted(TESTS.glob("test_*.py")):
        if re.search(r"^(import pins|from pins import)\b", path.read_text(), re.M):
            importlib.import_module(path.stem)
    return REGISTRY


def _differs(old: dict, new: dict, key) -> bool:
    return key not in old or key not in new or old[key] != new[key]


def _difference(old, new, where: str = "") -> str:
    """Where two unequal values first differ (None: absent), and both values there."""
    if type(old) is type(new) and isinstance(old, (dict, list)):
        old, new = (dict(enumerate(v)) if isinstance(v, list) else v for v in (old, new))
        key = next(k for k in sorted(old.keys() | new.keys()) if _differs(old, new, k))
        return _difference(old.get(key), new.get(key), f"{where}[{key!r}]")
    return f"{where}: {old!r} -> {new!r}"


def record() -> list[str]:
    """Recompute every pin, rewrite the data file; one line per moved pin."""
    for variable in FORCED_KERNELS:
        if variable in os.environ:
            raise SystemExit(f"{variable} is set: forced kernels would move pins; unset it")
    old = json.loads(PINS_PATH.read_text())
    new = {name: json.loads(json.dumps(compute(), allow_nan=False))
           for name, compute in registered().items()}
    PINS_PATH.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    return [name + _difference(old.get(name), new.get(name))
            for name in sorted(old.keys() | new.keys()) if _differs(old, new, name)]


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        sys.exit(__doc__)
    import pins  # the module the test files register with, not this __main__ copy

    moved = pins.record()
    print(*moved, f"{len(pins.REGISTRY)} pin(s) recorded, {len(moved)} moved", sep="\n")
