"""The Study protocol: every experiment behind one declarative seam.

A *study* is the unit the CLI, the ``repro.api`` facade and the
benchmark harness all speak: a named experiment that can

* declare its grid — ``points(ctx) -> list[SweepPoint]`` (possibly
  empty, for analytical/micro-probe studies whose result is computed
  rather than trained);
* reduce per-point sweep artifacts back into the experiment's result
  object — ``aggregate(artifacts)``;
* render that result the way the paper reports it —
  ``format_report(result)``;
* state the paper's findings it reproduces — ``claims``, a tuple of
  :class:`Claim` checked on the aggregated result whenever the study
  runs at the default :class:`StudyContext`.

Experiment modules register by decorating a small declaration class::

    from repro.sweep.study import study

    @study("fig7")
    class Fig7Study:
        \"\"\"Algorithms on LR/SVM/MobileNet (GA-SGD / MA-SGD / ADMM).\"\"\"

        @staticmethod
        def points(ctx):
            return sweep_points(max_epochs=ctx.max_epochs, seed=ctx.seed)

        aggregate = staticmethod(aggregate)
        format_report = staticmethod(format_report)

and the registry auto-discovers them by importing every module under
:mod:`repro.experiments` on first lookup — adding a study never touches
the registry again, and ``repro.cli sweep --experiment <name>`` gains
``--jobs/--resume`` and the record-once/replay-the-rest sweep for free.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from dataclasses import dataclass
from typing import Any, Callable

from repro.config import DEFAULT_SEED
from repro.errors import ConfigurationError
from repro.sweep.grid import SweepPoint

__all__ = [
    "Claim",
    "Study",
    "StudyContext",
    "all_studies",
    "discover",
    "get_study",
    "register",
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


class Study:
    """One registered experiment: grid + aggregator + report renderer.

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
    experiment's result object; ``format_report(result)`` renders it the
    way the paper reports it; ``claims`` are the :class:`Claim` s that
    result must satisfy at the default context.
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

    def points(
        self,
        max_epochs: float | None = None,
        seed: int = DEFAULT_SEED,
        ctx: StudyContext | None = None,
        mega: bool = False,
    ) -> list[SweepPoint]:
        """The study's grid for one context (a fresh list each call)."""
        if self._points is None:
            return []
        if ctx is None:
            ctx = StudyContext(max_epochs=max_epochs, seed=seed, mega=mega)
        return list(self._points(ctx))

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
    — the grid is then empty), ``aggregate(artifacts)`` and
    ``format_report(result)`` as static/plain callables, and optionally
    ``claims``; the description defaults to the first line of the class
    docstring.
    """

    def decorate(cls):
        doc = description or (inspect.getdoc(cls) or "").strip()
        if not doc:
            raise ConfigurationError(
                f"study {name!r} needs a description (docstring or keyword)"
            )
        register(
            Study(
                name,
                doc.splitlines()[0],
                points=getattr(cls, "points", None),
                aggregate=cls.aggregate,
                format_report=cls.format_report,
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
