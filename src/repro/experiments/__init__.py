"""Experiment modules: one per table/figure of the paper (plus extensions).

Every module registers a :class:`~repro.sweep.study.Study` via the
``@study`` decorator: a named grid declaration (``points(ctx)``), the
report it prints and the claims it states. The registry auto-discovers
them by importing this package's modules, so ``repro.cli sweep
--experiment <name>`` (and ``repro.api``'s ``Session.sweep``) covers
the whole catalog with ``--jobs/--resume``, recording one exact
training per statistical fingerprint and replaying the rest.

A grid has one spelling: every ``points`` / ``*_points`` function is a
:class:`~repro.sweep.scenario.Scenario` expression, exactly like
``examples/custom_study.py`` — ``Scenario.workload(model, dataset,
**overrides)`` seeds a point from the tuned Table-4 registry
(:mod:`repro.experiments.workloads`) and is the only code that maps
Table 4 to config kwargs, ``.vary()`` / ``.grid()`` derive the cells,
``.named(label, **tags)`` labels them and ``.point(experiment)`` hands
them to the orchestrator. A deliberate departure from Table 4 is a
commented override at the call site; no module here constructs a
``SweepPoint`` or calls ``expand_grid`` / ``get_workload`` itself
(``tests/test_study_registry.py`` enforces it, counts the departures and
pins the digest of all 23 grids).

A report has one spelling too: every study's result is a list of flat
rows and its report is declared. A grid study's rows default to the row
frame (:func:`~repro.sweep.study.rows`: one flat row per artifact —
config fields, tags, label, result scalars, breakdown phases, events,
loss curve); a study whose result is computed rather than regrouped
(fig13, table5, figS, figV, multitenancy and the direct studies: the
analytical models and engine probes) names an ``aggregate`` that
returns its own rows, and a direct study's ``run()`` *is* its
computation. ``report`` holds :class:`~repro.sweep.study.Table` parts (a
title, ``(header, row key or expression)`` columns, an optional
``where`` filter — fig13's two panels are one frame split by ``part`` —
or ``pivot`` for cross-row comparisons) and
:class:`~repro.sweep.study.Series` parts (loss-vs-time curves), printed
once per value of the optional ``group`` tag, ordered by the optional
``sort`` key. Claims read the same rows by key — ``pivot(rows, "case",
"protocol")`` pairs fig8's ASP run with its BSP run.

None of the modules imports the orchestrator: running one is the
protocol itself — hand the study's points to the sweep orchestrator and
its artifacts to ``aggregate``. A study's ``claims`` state the paper's
findings on its default grid (``repro.cli sweep --experiment X`` checks
them; a finding the simulator does not reproduce is a claim with a
recorded ``deviation``).
"""

from repro.experiments.workloads import WORKLOADS, Workload, get_workload

__all__ = ["WORKLOADS", "Workload", "get_workload"]
