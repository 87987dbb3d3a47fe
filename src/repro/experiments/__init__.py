"""Experiment modules: one per table/figure of the paper (plus extensions).

Every module registers a :class:`~repro.sweep.study.Study` via the
``@study`` decorator: a named grid declaration (``points(ctx)``), an
artifact aggregator and a report renderer. The registry auto-discovers
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

The modules hold grids, aggregators, renderers and claims only, and
none imports the orchestrator: running one is the protocol itself —
hand the study's points to the sweep orchestrator and its artifacts to
``aggregate``. ``format_report(...)`` mirrors the paper's tables, and a
study's ``claims`` state the paper's findings on its default grid
(``repro.cli sweep --experiment X`` checks them; a finding the simulator
does not reproduce is a claim with a recorded ``deviation``). Analytical
studies keep a ``run()`` that *is* their computation.
"""

from repro.experiments.workloads import WORKLOADS, Workload, get_workload

__all__ = ["WORKLOADS", "Workload", "get_workload"]
