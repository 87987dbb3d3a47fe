"""The substrate contract: what the workers compute, behind one seam.

A :class:`Substrate` owns everything *statistical* about a training
run — datasets, shards, per-rank algorithm state, losses — while the
job context and executors own everything the simulation times and
bills. Executors reach the statistical side exclusively through
``ctx.stats(rank)``, which returns a per-rank view.

Three implementations:

* :class:`~repro.substrate.exact.ExactSubstrate` — the default for
  every config that is not timing-coupled. A BSP run's statistics are
  timing-independent, so it computes them before the engine starts —
  the lockstep pass (:mod:`repro.substrate.lockstep`), all W ranks
  together, one stacked numpy call per minibatch step where the kernels
  allow, and the only place BSP floats are folded — and the run replays
  that trace; ``.trace`` keeps it.
* :class:`~repro.substrate.replay.ReplaySubstrate` — re-emits a given
  trace with zero numpy work; its read-only views answer
  ``epochs_per_round``, ``round_work()``, ``eval_work()`` and, by
  evaluation index, ``local_loss(i)`` and ``global_loss(i)``, so the
  executors yield the identical command stream and
  duration/cost/history/breakdown are bit-identical to the exact run.
* :class:`~repro.substrate.exact.PerRankSubstrate` — real numpy in the
  engine for timing-coupled configs only (ASP, hybrid PS), whose floats
  depend on the event order; its views are the
  :class:`~repro.optim.base.DistributedAlgorithm` surface. It refuses a
  BSP config, as ``ExactSubstrate`` refuses a timing-coupled one.

:func:`repro.substrate.make_substrate` picks the default.

Substrate instances are single-use: one ``train()`` call attaches one
substrate to one job context.
"""

from __future__ import annotations

import abc
import time

from repro.errors import SubstrateError


class Substrate(abc.ABC):
    """Per-run statistical backend; see the module docstring."""

    def __init__(self) -> None:
        #: Host seconds spent doing statistical (numpy) work: substrate
        #: build + every metered call of a view (TimedView). Sweeps
        #: persist this per point (``meta.compute_seconds``) so the
        #: wall-clock ledger shows where time actually goes.
        self.compute_seconds = 0.0
        self._attached = False

    # ------------------------------------------------------------------
    def attach(self, ctx) -> None:
        """Bind to a job context: build this run's statistical state."""
        if self._attached:
            raise SubstrateError(
                f"{type(self).__name__} is single-use: already attached to a run"
            )
        self._attached = True
        self._build(ctx)

    @abc.abstractmethod
    def _build(self, ctx) -> None:
        """Populate per-run state (called once, from :meth:`attach`)."""

    @abc.abstractmethod
    def stats(self, rank: int):
        """The per-rank statistical view executors drive."""

    def final_accuracy(self, ctx) -> float | None:
        """Validation accuracy of the final model, when defined."""
        return None

    def finalize(self, ctx, result, outcomes) -> None:
        """Post-run hook (a replay checks it consumed its trace here)."""


class TimedView:
    """Pass-through per-rank view that meters the numpy-heavy calls.

    Forwards the full algorithm surface (including ``model``/``shard``
    for the asynchronous executor) and adds the elapsed host time of
    ``round_payload``/``local_loss`` — and of the asynchronous
    executor's ``gradient``/``loss``, the model's own — to the owning
    substrate's ``compute_seconds``. Pure observation: values, dtypes
    and call order are untouched, so a metered run is bit-identical to
    the raw algorithm.
    """

    __slots__ = ("_algo", "_substrate")

    def __init__(self, algo, substrate: Substrate) -> None:
        object.__setattr__(self, "_algo", algo)
        object.__setattr__(self, "_substrate", substrate)

    def _metered(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self._substrate.compute_seconds += time.perf_counter() - t0
        return out

    def round_payload(self):
        return self._metered(self._algo.round_payload)

    def local_loss(self) -> float:
        return self._metered(self._algo.local_loss)

    def gradient(self, params, X, y):
        return self._metered(self._algo.model.gradient, params, X, y)

    def loss(self, params, X, y) -> float:
        return self._metered(self._algo.model.loss, params, X, y)

    @property
    def params(self):
        return self._algo.params

    @params.setter
    def params(self, value) -> None:
        self._algo.params = value

    def __getattr__(self, name):
        # epochs_per_round / round_work / eval_work / model / shard /
        # algorithm-specific extras: plain forwarding.
        return getattr(self._algo, name)

    def __setattr__(self, name, value) -> None:
        if name == "params":
            TimedView.params.fset(self, value)
            return
        raise AttributeError(f"substrate views are read-only (tried to set {name!r})")
