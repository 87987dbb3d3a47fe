"""What ``Session``, ``Service`` and ``ServingSession`` share: one root.

All three own a root directory and a sweep policy fixed at
construction, and train through the ordinary sweep orchestrator: one
exact training per statistical fingerprint, replays for the rest. One
layout holds whatever launched a run::

    <root>/<study> | runs | adhoc     Session.sweep / run+compare / lists
    <root>/baselines, <root>/service  Service: isolated runs, its report
    <root>/models, <root>/serving     ServingSession: the model, its report
    <root>/traces                     every facade's replay traces

so a trace one facade records is replayed by any other sweep against
that root. The two report facades persist their report through
:func:`repro.store.load_or_run`. ``root=None`` keeps everything in
memory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError
from repro.sweep.grid import SweepPoint
from repro.sweep.orchestrator import SweepRun, run_sweep


@dataclass
class ReportOutcome:
    """What a report facade's ``run`` returns: the report + how much ran.

    ``ran`` is how many records were actually simulated this call — zero
    when the run resumed from a persisted report. It lives outside the
    report document so resumed and fresh outcomes stay byte-equal on
    disk. Subclasses name the renderer as ``_format``.
    """

    data: dict  # the (persisted) report document
    ran: int
    path: Path | None = None  # where the report lives, if rooted

    @property
    def metrics(self) -> dict:
        return self.data["metrics"]

    def report(self) -> str:
        """The rendered report table + scorecard."""
        return self._format(self.data)


class ReportFacade:
    """Root + sweep policy; subclasses add their workload and verbs.

    The policy is set here, once per facade: ``jobs`` (pool width),
    ``resume`` (reuse what the root already holds; the default) and
    ``progress`` (a callable taking one status line). A report facade
    also names, as ``_config_param``, the constructor keyword
    ``from_config`` passes the declarative config as.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        *,
        jobs: int = 1,
        resume: bool = True,
        progress=None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"{type(self).__name__} jobs must be >= 1, got {jobs}")
        self.root = None if root is None else Path(root)
        self.jobs = jobs
        self.resume = resume and root is not None
        self.progress = progress

    @classmethod
    def from_config(cls, config, root: str | os.PathLike | None = None, **kwargs):
        """The CLI entry point: the whole run from one declarative config."""
        return cls(root, **{cls._config_param: config}, **kwargs)

    def _dir(self, name: str) -> Path | None:
        return None if self.root is None else self.root / name

    def _train(self, points: list[SweepPoint], sub: str) -> SweepRun:
        """Train ``points`` under ``<root>/<sub>``, traces under ``<root>/traces``."""
        return run_sweep(
            points,
            out_dir=self._dir(sub),
            jobs=self.jobs,
            resume=self.resume,
            traces_dir=self._dir("traces"),
            progress=self.progress,
        )
