"""The substrate contract: what the workers compute, behind one seam.

A :class:`Substrate` owns everything *statistical* about a training
run — datasets, shards, per-rank algorithm state, losses — while the
job context and executors own everything the simulation times and
bills. Executors reach the statistical side exclusively through
``ctx.stats(rank)``, which returns a per-rank view exposing the
:class:`~repro.optim.base.DistributedAlgorithm` surface:

``reduce``, ``epochs_per_round``, ``round_work()``, ``eval_work()``,
``round_payload()``, ``apply()``, ``local_loss()``, ``params``.

Three implementations:

* :class:`~repro.substrate.exact.ExactSubstrate` — the default for
  every config that is not timing-coupled. A BSP run's statistics are
  timing-independent, so it computes them before the engine starts —
  the lockstep pass (:mod:`repro.substrate.lockstep`), all W ranks
  together, one stacked numpy call per minibatch step where the kernels
  allow — and the run replays that trace; ``.trace`` keeps it.
* :class:`~repro.substrate.exact.PerRankSubstrate` — real numpy in the
  engine: each rank's algorithm runs one call at a time. The default
  for timing-coupled configs (ASP, hybrid PS), and the independent
  oracle the lockstep pass is tested against.
* :class:`~repro.substrate.replay.ReplaySubstrate` — re-emits a given
  trace with zero numpy work; the executors yield the identical
  command stream, so duration/cost/history/breakdown are bit-identical
  to the exact run.

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
        #: build + every round_payload/apply/local_loss call. Sweeps
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

    # -- fault recovery -------------------------------------------------
    def snapshot_rank(self, rank: int):
        """Opaque statistical state of `rank` for crash recovery.

        The returned object must stay valid across any number of
        :meth:`restore_rank` calls (restores install a *copy*), and a
        restored rank must reproduce the exact statistical stream —
        payload floats, losses, RNG draws — that followed the snapshot
        the first time. The fault injector snapshots at every FaaS
        round boundary and once per rank at IaaS job start.
        """
        raise SubstrateError(
            f"{type(self).__name__} does not support fault recovery snapshots"
        )

    def restore_rank(self, rank: int, state) -> None:
        """Reset `rank`'s statistical state to a prior snapshot."""
        raise SubstrateError(
            f"{type(self).__name__} does not support fault recovery snapshots"
        )


class TimedView:
    """Pass-through per-rank view that meters the numpy-heavy calls.

    Forwards the full algorithm surface (including ``model``/``shard``
    for the asynchronous executor) and adds the elapsed host time of
    ``round_payload``/``apply``/``local_loss`` to the owning
    substrate's ``compute_seconds``. Pure observation: values, dtypes
    and call order are untouched, so a metered run is bit-identical to
    the raw algorithm.
    """

    __slots__ = ("_algo", "_substrate")

    def __init__(self, algo, substrate: Substrate) -> None:
        object.__setattr__(self, "_algo", algo)
        object.__setattr__(self, "_substrate", substrate)

    def round_payload(self):
        t0 = time.perf_counter()
        out = self._algo.round_payload()
        self._substrate.compute_seconds += time.perf_counter() - t0
        return out

    def apply(self, merged) -> None:
        t0 = time.perf_counter()
        self._algo.apply(merged)
        self._substrate.compute_seconds += time.perf_counter() - t0

    def local_loss(self) -> float:
        t0 = time.perf_counter()
        loss = self._algo.local_loss()
        self._substrate.compute_seconds += time.perf_counter() - t0
        return loss

    @property
    def params(self):
        return self._algo.params

    @params.setter
    def params(self, value) -> None:
        self._algo.params = value

    def __getattr__(self, name):
        # reduce / epochs_per_round / round_work / eval_work / model /
        # shard / algorithm-specific extras: plain forwarding.
        return getattr(self._algo, name)

    def __setattr__(self, name, value) -> None:
        if name == "params":
            TimedView.params.fset(self, value)
            return
        raise AttributeError(f"substrate views are read-only (tried to set {name!r})")
