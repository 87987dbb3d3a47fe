"""Golden: every study's report text and claim verdicts, byte for byte.

A study reduces its artifacts (none, for a direct study) and renders
them the way the paper reports them, then states its findings as claims
on the same result.
This file pins what ``format_report(aggregate(artifacts))`` prints and
every claim's ``verdict()`` line at one small :class:`StudyContext`
(``report.<study>``, one item per printed line), so
a change to how the reports are built (rows, columns, grouping, sort,
the table renderer) must leave the printed text unchanged. At this
context the claims are not the paper's findings (those hold at the
default grid, CI ``paper-claims``), only the verdict lines the same
checks print on these numbers.

The same artifacts, less any one of them (an interrupted or partly
failed sweep), must still render: a cell whose partner run is missing
prints N/A.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from pins import pinned, register
from repro.sweep.orchestrator import run_sweep
from repro.sweep.study import StudyContext, get_study

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


@register("report", keys=STUDIES)
def render(name: str) -> list[str]:
    """The report's lines, a blank line, then one verdict line per claim."""
    entry = get_study(name)
    result = entry.aggregate(list(artifacts(name)))
    lines = [*entry.format_report(result).split("\n"), ""]
    lines += [claim.verdict(result)[1] for claim in entry.claims]
    return lines


@pytest.mark.parametrize("name", PARAMS)
def test_report_matches_the_golden(name):
    assert render(name) == pinned(f"report.{name}")


@pytest.mark.parametrize("name", PARAMS)
def test_report_renders_without_any_one_artifact(name):
    entry, full = get_study(name), list(artifacts(name))
    for i in range(len(full)):
        report = entry.format_report(entry.aggregate(full[:i] + full[i + 1:]))
        if name in ("cost_sanity", "fig7"):
            # Every run has a partner in a speed-up cell.
            assert "N/A" in report, full[i]["label"]
