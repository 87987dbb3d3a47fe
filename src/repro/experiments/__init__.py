"""Experiment modules: one per table/figure of the paper (plus extensions).

Every module registers a :class:`~repro.sweep.study.Study` via the
``@study`` decorator: a named grid declaration (``points(ctx)``), an
artifact aggregator and a report renderer. The registry auto-discovers
them by importing this package's modules, so ``repro.cli sweep
--experiment <name>`` (and ``repro.api``'s ``Session.sweep``) covers
the whole catalog with ``--jobs/--resume/--substrate auto``.

The modules hold grids, aggregators and renderers only, and none
imports the orchestrator: running one is the protocol itself — hand a
grid function's points to the sweep orchestrator and its artifacts to
``aggregate`` — which is how the figure scripts in ``benchmarks/`` call
them at scaled-down settings (the grid functions also accept the
full-scale parameters). ``format_report(...)`` mirrors the paper's
tables. Analytical studies keep a ``run()`` that *is* their computation.
"""

from repro.experiments.workloads import WORKLOADS, Workload, get_workload

__all__ = ["WORKLOADS", "Workload", "get_workload"]
