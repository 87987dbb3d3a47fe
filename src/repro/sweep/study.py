"""The Study protocol: every experiment behind one declarative seam.

A *study* is the unit the CLI, the ``repro.api`` facade and the
benchmark harness all speak: a named experiment that can

* declare its grid — ``points(ctx) -> list[SweepPoint]`` (possibly
  empty, for analytical/micro-probe studies whose result is computed
  rather than trained);
* reduce per-point sweep artifacts to rows — ``aggregate(artifacts)``,
  one flat dict per table line;
* declare the report the paper prints — ``report``, a tuple of
  :class:`Table` and :class:`Series` parts over those rows;
* state the paper's findings it reproduces — ``claims``, a tuple of
  :class:`Claim` checked on the same rows whenever the study runs at
  the default :class:`StudyContext`.

Every paper figure is a table of one metric against one axis, so every
study states its report as data. A grid study's rows default to the row
frame — :func:`rows`, one flat dict per artifact; a study whose result
is computed (an analytical model, an engine probe, a service or serving
simulation over the artifacts) names an ``aggregate`` that returns its
own rows. :func:`render` prints the parts once per value of the optional
``group`` tag (first-seen order), each group's rows ordered by the
optional ``sort`` key; a ``where`` filter splits one frame into several
tables::

    from repro.sweep.study import Claim, Table, study

    @study("fig10")
    class Fig10Study:
        \"\"\"per-phase runtime breakdown across all four systems\"\"\"

        points = staticmethod(sweep_points)  # ctx -> list[SweepPoint]
        report = (
            Table("Figure 10 — time breakdown", (
                ("system", "system"),                # a row key...
                ("startup", "startup_s"),
                ("total", "duration_s"),
                ("w/o startup", lambda r: r["duration_s"] - r["startup_s"]),
            )),                                      # ...or an expression
        )
        claims = (Claim("fig10.order", "Fig. 10", check_rows),)

A class without a ``report`` is refused. The registry auto-discovers
declarations by importing every module under :mod:`repro.experiments`
on first lookup — adding a study never touches the registry again, and
``repro.cli sweep --experiment <name>`` gains ``--jobs/--resume`` and
the record-once/replay-the-rest sweep for free.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.config import DEFAULT_SEED
from repro.errors import ConfigurationError
from repro.simulation.tracing import KNOWN_CATEGORIES
from repro.sweep.grid import SweepPoint

__all__ = [
    "Claim",
    "Series",
    "Study",
    "StudyContext",
    "Table",
    "all_studies",
    "discover",
    "get_study",
    "pivot",
    "register",
    "render",
    "rows",
    "study",
    "study_names",
]


@dataclass(frozen=True)
class StudyContext:
    """What a grid declaration may depend on.

    ``max_epochs`` overrides every point's epoch cap (scaled-down
    sweeps); ``seed`` feeds every RNG draw; ``mega`` opts into the
    mega-scale grid tails (e.g. fig11's W=1024/2048/4096 FaaS points)
    that stay out of default sweeps so CI smoke runs keep their wall
    budget.
    """

    max_epochs: float | None = None
    seed: int = DEFAULT_SEED
    mega: bool = False


@dataclass(frozen=True)
class Claim:
    """One finding of the paper, stated as a check on a study's result.

    ``check(result)`` returns ``None`` when the finding holds on the
    aggregated result and a one-line complaint when it does not. ``cite``
    names the figure, table or section it comes from. A finding the
    simulator does not reproduce keeps its check and records why in
    ``deviation``: a failed deviation is reported, never fatal.
    """

    id: str
    cite: str
    check: Callable[[Any], str | None]
    deviation: str | None = None

    def verdict(self, result) -> tuple[bool, str]:
        """``(fatal, line)``: one printable line for this claim."""
        complaint = self.check(result)
        head = f"claim {self.id} [{self.cite}]"
        if complaint is None:
            return False, f"{head}: holds"
        if self.deviation is not None:
            return False, f"{head}: deviation ({complaint}): {self.deviation}"
        return True, f"{head}: FAILED: {complaint}"


#: What a row holds of its artifact's result, under the same names.
_RESULT_FIELDS = (
    "converged", "final_loss", "duration_s", "cost_total", "epochs", "comm_rounds",
)


def rows(artifacts: list[dict]) -> list[dict]:
    """The row frame: one flat row per artifact, in artifact order.

    A row holds the point's config fields, then its tags (a tag shadows
    the config field of the same name: it is the study's own word for
    the point; a tag that other artifacts of the set carry and this one
    lacks is ``None``, never the config default), its ``label`` and
    ``config_hash`` (the trace back to the artifact), the result scalars
    under their artifact names, one ``<phase>_s`` entry per
    time-breakdown phase (0.0 when the run spent none), ``events`` (the
    reliability counters) and ``loss_curve`` — ``(time, loss)`` pairs in
    time order.
    """
    untagged = dict.fromkeys(key for artifact in artifacts for key in artifact["tags"])
    frame = []
    for artifact in artifacts:
        result = artifact["result"]
        phases = result["time_breakdown"]
        frame.append({
            **artifact["config"],
            **untagged,
            **artifact["tags"],
            "label": artifact["label"],
            "config_hash": artifact["config_hash"],
            **{key: result[key] for key in _RESULT_FIELDS},
            **{f"{phase}_s": phases.get(phase, 0.0) for phase in KNOWN_CATEGORIES},
            "events": dict(result["events"]),
            "loss_curve": sorted((t, loss) for t, _, loss, _ in result["history"]),
        })
    return frame


def pivot(frame: list[dict], index: str, by: str) -> dict[Any, dict[Any, dict]]:
    """``index`` value -> (``by`` value -> row), both in first-seen order.

    The cross-row shape of a comparison: every channel of one Table-1
    row, every role of one COST case, every worker count of one
    algorithm.
    """
    table: dict[Any, dict[Any, dict]] = {}
    for row in frame:
        table.setdefault(row[index], {})[row[by]] = row
    return table


@dataclass(frozen=True)
class Table:
    """One table of a declared report.

    ``title`` is formatted with the group value (``"Figure 9 — {}"``), or
    is a callable of the group's rows. Each column is ``(header, expr)``,
    ``expr`` a row key or a callable of the row. ``where`` keeps the rows
    whose fields equal its items; ``pivot=(index, by)`` prints one line
    per ``index`` value, its "row" the :func:`pivot` dict of ``by`` value
    -> row.
    """

    title: str | Callable[[list[dict]], str]
    columns: tuple[tuple[str, str | Callable[[Any], Any]], ...]
    where: tuple[tuple[str, Any], ...] = ()
    pivot: tuple[str, str] | None = None


@dataclass(frozen=True)
class Series:
    """A loss-vs-time block: one curve per row, named by ``name(row)``."""

    title: str
    name: Callable[[dict], str]


def render(
    report: tuple[Table | Series, ...],
    frame: list[dict],
    group: str | None = None,
    sort: Callable[[dict], Any] | None = None,
) -> str:
    """Print a declared report: every part once per group, blocks apart.

    An ungrouped report prints every part even over no rows.
    """
    from repro.experiments.report import format_series, format_table

    groups: dict[Any, list[dict]] = {} if group else {None: []}
    for row in frame:
        groups.setdefault(row[group] if group else None, []).append(row)
    blocks = []
    for value, members in groups.items():
        if sort is not None:
            members = sorted(members, key=sort)
        for part in report:
            title = part.title(members) if callable(part.title) else part.title.format(value)
            if isinstance(part, Series):
                curves = {part.name(row): row["loss_curve"] for row in members}
                blocks.append(format_series(title, curves))
                continue
            lines = [r for r in members if all(r[k] == v for k, v in part.where)]
            if part.pivot is not None:
                lines = list(pivot(lines, *part.pivot).values())
            blocks.append(format_table(
                title,
                [header for header, _ in part.columns],
                [[_cell(expr, line) for _, expr in part.columns] for line in lines],
            ))
    return "\n\n".join(blocks)


def _cell(expr, line):
    return expr(line) if callable(expr) else line[expr]


class Study:
    """One registered experiment: grid + aggregator + report.

    ``kind`` says how the result is produced, and follows from the
    declaration:

    * ``"grid"`` — ``points`` is given: the study's substance is a grid
      of :class:`~repro.core.config.TrainingConfig` points run by the
      sweep orchestrator; ``aggregate`` is a cheap pure reduction of
      the persisted artifacts.
    * ``"direct"`` — ``points`` is ``None``: the grid is empty and
      ``aggregate`` computes the result itself (analytical models,
      engine micro-probes). The orchestrator flags still work — there
      is just nothing to fan out.

    ``aggregate(artifacts)`` reduces per-point artifacts to the
    study's rows (by default the row frame, :func:`rows`);
    ``format_report(rows)`` prints them the way the paper reports them
    (the declared report, bound to :func:`render`); ``claims`` are the
    :class:`Claim` s those rows must satisfy at the default context.
    """

    def __init__(
        self, name: str, description: str, points, aggregate, format_report,
        claims: tuple[Claim, ...] = (),
    ) -> None:
        self.name = name
        self.description = description
        self.kind = "direct" if points is None else "grid"
        self._points = points
        self.aggregate = aggregate
        self.format_report = format_report
        self.claims = tuple(claims)

    def points(self, ctx: StudyContext = StudyContext()) -> list[SweepPoint]:
        """The study's grid for one context (a fresh list each call)."""
        return [] if self._points is None else list(self._points(ctx))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Study({self.name!r}, kind={self.kind!r})"


_REGISTRY: dict[str, Study] = {}
_DISCOVERED = False


def register(entry: Study) -> Study:
    """Add one study to the registry (duplicate names are an error)."""
    if entry.name in _REGISTRY:
        raise ConfigurationError(
            f"study {entry.name!r} is already registered "
            f"(by {_REGISTRY[entry.name]!r})"
        )
    _REGISTRY[entry.name] = entry
    return entry


def study(name: str, *, description: str | None = None):
    """Class decorator registering a study declaration.

    The class provides ``points(ctx)`` (leave it out for a direct study
    — the grid is then empty), ``report`` (a tuple of :class:`Table` /
    :class:`Series`, with optional ``group`` tag and ``sort`` key,
    printed by :func:`render`) and optionally ``aggregate(artifacts)``
    returning the rows the report reads (the row frame, :func:`rows`,
    when left out), as static/plain callables. ``claims`` is optional;
    the description defaults to the first line of the class docstring.
    A class without ``report``, or with a ``format_report`` of its own,
    is a :class:`ConfigurationError`: a report has one spelling.
    """

    def decorate(cls):
        doc = description or (inspect.getdoc(cls) or "").strip()
        if not doc:
            raise ConfigurationError(
                f"study {name!r} needs a description (docstring or keyword)"
            )
        if hasattr(cls, "format_report"):
            raise ConfigurationError(
                f"study {name!r} defines format_report; declare its report as "
                "`report = (Table(...), ...)` instead"
            )
        if not hasattr(cls, "report"):
            raise ConfigurationError(
                f"study {name!r} declares no report: give it "
                "`report = (Table(...), ...)`"
            )
        register(
            Study(
                name,
                doc.splitlines()[0],
                points=getattr(cls, "points", None),
                aggregate=getattr(cls, "aggregate", rows),
                format_report=partial(
                    render, cls.report, group=getattr(cls, "group", None),
                    sort=getattr(cls, "sort", None),
                ),
                claims=getattr(cls, "claims", ()),
            )
        )
        return cls

    return decorate


def discover() -> None:
    """Import every :mod:`repro.experiments` module once.

    The ``@study`` decorators run at import time, so after this every
    experiment the package ships is registered. Idempotent and cheap on
    repeat calls.
    """
    global _DISCOVERED
    if _DISCOVERED:
        return
    package = importlib.import_module("repro.experiments")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"repro.experiments.{info.name}")
    # Only flag success once every module imported: if one raised, the
    # next call retries (and re-raises the real error) instead of
    # serving a silently partial registry. Modules that did import are
    # cached by sys.modules, so their @study registrations don't rerun.
    _DISCOVERED = True


def get_study(name: str) -> Study:
    discover()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown study {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def all_studies() -> dict[str, Study]:
    """Name -> study, sorted by name (a copy; the registry is private)."""
    discover()
    return dict(sorted(_REGISTRY.items()))


def study_names() -> list[str]:
    discover()
    return sorted(_REGISTRY)
