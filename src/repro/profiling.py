"""Opt-in run profiling: cProfile plus the engine's event-count stats.

``repro.cli train --profile [DIR]`` and ``repro.cli sweep --profile``
wrap the run in :func:`profile_call`, which captures

* a cProfile of the whole call — both the binary dump (``*.pstats``,
  for ``snakeviz``/``pstats`` exploration) and a human-readable top-40
  by cumulative time (``*_profile.txt``);
* every engine's :class:`~repro.simulation.engine.EngineStats`
  (dispatched events per callsite, batches, peak heap), collected via
  :func:`repro.simulation.engine.capture_stats` so no layer between
  the CLI and the engines needs profiling plumbing
  (``*_engine_stats.json``).

The engine stats answer "*which simulation seam* scheduled the work"
(cheap enough to leave on), the cProfile answers "*which Python
frames* burned the host CPU"; regressions usually show in one before
the other.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
from pathlib import Path
from typing import Any, Callable

from repro.simulation.engine import EngineStats, capture_stats
from repro.utils.stats import tally

__all__ = ["profile_call"]

_TOP_FRAMES = 40


def _combined(collected: list[EngineStats]) -> dict:
    """Fold per-engine summaries into one (multi-engine sweeps/service)."""
    by_callsite: dict[str, int] = {}
    for stats in collected:
        for name, count in stats.by_callsite.items():
            by_callsite[name] = by_callsite.get(name, 0) + count
    events = tally(s.events for s in collected)
    batches = tally(s.batches for s in collected)
    ranked = sorted(by_callsite.items(), key=lambda kv: (-kv[1], kv[0]))
    return {
        "engines": len(collected),
        "events": events,
        "batches": batches,
        "events_per_batch": round(events / batches, 3) if batches else 0.0,
        "peak_heap": max((s.peak_heap for s in collected), default=0),
        "top_callsites": ranked[:10],
    }


def profile_call(
    fn: Callable[[], Any], out_dir: str | Path, label: str
) -> tuple[Any, list[Path]]:
    """Run ``fn()`` under cProfile with engine stats capture.

    Writes ``<label>_profile.pstats``, ``<label>_profile.txt`` and
    ``<label>_engine_stats.json`` into ``out_dir`` (created if needed)
    and returns ``(fn's result, written paths)``. Artifacts are written
    even if ``fn`` raises — a run that dies mid-simulation is exactly
    the one worth profiling.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    profiler = cProfile.Profile()
    collected: list[EngineStats] = []
    try:
        with capture_stats(collected):
            profiler.enable()
            try:
                result = fn()
            finally:
                profiler.disable()
    finally:
        paths = _dump(profiler, collected, out, label)
    return result, paths


def _dump(
    profiler: cProfile.Profile,
    collected: list[EngineStats],
    out: Path,
    label: str,
) -> list[Path]:
    binary = out / f"{label}_profile.pstats"
    profiler.dump_stats(binary)

    text = io.StringIO()
    stats = pstats.Stats(profiler, stream=text)
    stats.sort_stats("cumulative").print_stats(_TOP_FRAMES)
    table = out / f"{label}_profile.txt"
    table.write_text(text.getvalue())

    engine_stats = out / f"{label}_engine_stats.json"
    engine_stats.write_text(
        json.dumps(
            {
                "per_engine": [s.summary() for s in collected],
                "combined": _combined(collected),
            },
            indent=1,
        )
        + "\n"
    )
    return [binary, table, engine_stats]
