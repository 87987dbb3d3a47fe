"""Golden: every study's report text and claim verdicts, byte for byte.

A study reduces its artifacts (none, for a direct study) and renders
them the way the paper reports them, then states its findings as claims
on the same result.
This file pins what ``format_report(aggregate(artifacts))`` prints and
every claim's ``verdict()`` line at one small :class:`StudyContext`, so
a change to how the reports are built (rows, columns, grouping, sort,
the table renderer) must leave the printed text unchanged. At this
context the claims are not the paper's findings (those hold at the
default grid, CI ``paper-claims``), only the verdict lines the same
checks print on these numbers.

The same artifacts, less any one of them (an interrupted or partly
failed sweep), must still render: a cell whose partner run is missing
prints N/A.

Regenerate only after an *intentional* change to a
report, never to paper over a diff you cannot explain:

    PYTHONPATH=src python tests/test_study_reports.py --record
"""

from __future__ import annotations

import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.sweep.orchestrator import run_sweep
from repro.sweep.study import StudyContext, get_study

GOLDEN_DIR = Path(__file__).parent / "data" / "study_reports"
CTX = StudyContext(max_epochs=0.1)
STUDIES = (
    "ablations", "cost_sanity", "datasets", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15", "figR", "figS", "figV",
    "multitenancy", "multitenancy_analytical", "smoke", "table1", "table2",
    "table3", "table5", "table6",
)
SLOW = {"fig9", "fig12"}
PARAMS = [pytest.param(n, marks=pytest.mark.slow) if n in SLOW else n for n in STUDIES]


@lru_cache(maxsize=None)
def artifacts(name: str) -> tuple[dict, ...]:
    return tuple(run_sweep(get_study(name).points(ctx=CTX)).artifacts)


def render(name: str) -> str:
    """The report, a blank line, then one verdict line per claim."""
    entry = get_study(name)
    result = entry.aggregate(list(artifacts(name)))
    lines = [entry.format_report(result), ""]
    lines += [claim.verdict(result)[1] for claim in entry.claims]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", PARAMS)
def test_report_matches_the_golden(name):
    assert render(name) == (GOLDEN_DIR / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", PARAMS)
def test_report_renders_without_any_one_artifact(name):
    entry, full = get_study(name), list(artifacts(name))
    for i in range(len(full)):
        report = entry.format_report(entry.aggregate(full[:i] + full[i + 1:]))
        if name in ("cost_sanity", "fig7"):
            # Every run has a partner in a speed-up cell.
            assert "N/A" in report, full[i]["label"]


def test_the_golden_covers_every_listed_study():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(STUDIES)


def _record() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in STUDIES:
        (GOLDEN_DIR / f"{name}.txt").write_text(render(name))
        print(f"recorded {name}")


if __name__ == "__main__":
    if "--record" in sys.argv:
        _record()
    else:
        print(__doc__)
