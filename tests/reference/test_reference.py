"""The real engine and storage plane against the reference, world by world.

One hypothesis strategy draws whole worlds (``harness.worlds``); each
runs on the real engine and stores and on the reference, and everything
observable must agree bit for bit. ``python tests/reference/mutants.py``
runs this file against each committed source mutant.
"""

from __future__ import annotations

import ast
from pathlib import Path

from hypothesis import HealthCheck, given, settings

from .harness import (
    FEATURES, SeededPick, assert_same_world, build_world, cancelled_waiter_world, worlds,
)

HERE = Path(__file__).resolve().parent
SEEDED = 300


def test_worlds_match_the_reference():
    seen: set[str] = set()

    @settings(derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(worlds())
    def check(world):
        seen.update(assert_same_world(world)[1].features)

    check()
    # Hypothesis mutates its earlier examples, so its draws are lumpy:
    # a run may hold few DynamoDB stores or kills. The same builder then
    # draws SEEDED worlds from fixed seeds, and across both every command
    # and every world feature the reference models occurs at least once.
    for seed in range(SEEDED):
        seen.update(assert_same_world(build_world(SeededPick(f"cover:{seed}")))[1].features)
    assert FEATURES - seen == set()


def test_a_cancelled_count_waiter_leaves_the_smallest_target():
    """A directed world: the draws above rarely kill one of several count waiters."""
    assert "kill_mid_wait" in assert_same_world(cancelled_waiter_world())[1].features


CHECKED = ("repro.simulation.engine", "repro.simulation.resources", "repro.storage.base",
           "repro.storage.services", "repro.storage.ordered_index", "repro.pricing.meter",
           "repro.comm.patterns")


def test_the_reference_shares_no_logic_with_what_it_checks():
    """Its engine, store and patterns import none of the modules they check."""
    offenders = []
    for name in ("engine.py", "store.py", "patterns.py"):
        for node in ast.walk(ast.parse((HERE / name).read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                modules += [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            offenders += [f"{name}:{node.lineno} {m}" for m in modules
                          if m in CHECKED or any(m.startswith(f"{c}.") for c in CHECKED)]
    assert offenders == []
