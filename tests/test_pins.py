"""The pin registry (``tests/pins.py``) is whole, is the one place a pin is
written, and ``record`` refuses forced kernels before computing any pin."""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

import pins

#: A sha256 digest or its 16-digit prefix (a store key, also as a file
#: name), or a ``float.hex`` value.
PINNED_LITERAL = re.compile(r"[0-9a-f]{16,64}(\.json)?|-?0x1\.[0-9a-f]+p[+-]\d+")


def test_every_stored_pin_is_registered_and_every_registered_pin_stored():
    assert sorted(json.loads(pins.PINS_PATH.read_text())) == sorted(pins.registered())


def test_no_test_file_writes_a_pinned_value():
    found = [
        f"{path.name}:{node.lineno}: {node.value}"
        for path in sorted(Path(__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and PINNED_LITERAL.fullmatch(node.value)
    ]
    assert not found, found


@pytest.mark.parametrize("variable", pins.FORCED_KERNELS)
def test_record_refuses_forced_kernels(monkeypatch, tmp_path, variable):
    def train_nothing():
        raise AssertionError("record computed a pin")

    monkeypatch.setenv(variable, "haswell")
    monkeypatch.setattr(pins, "PINS_PATH", tmp_path / "pins.json")
    monkeypatch.setattr(pins, "registered", lambda: {"any.pin": train_nothing})
    with pytest.raises(SystemExit, match=variable):
        pins.record()
    assert not pins.PINS_PATH.exists()
