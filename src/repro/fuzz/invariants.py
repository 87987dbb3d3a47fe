"""The invariant catalog: properties every valid scenario must satisfy.

Each invariant is a self-contained predicate over one scenario's config
kwargs: ``check(kwargs)`` runs whatever trainings it needs and returns
``None`` (holds) or a one-line failure description. Self-containment is
what makes shrinking honest — the shrinker re-runs *only* the failing
invariant on each candidate, so a check may not depend on state left
behind by another.

The catalog encodes the repository's load-bearing contracts:

* ``completes`` — every valid config trains to completion with a
  consistent evaluation log (no deadlock, no lost or duplicated
  evaluation, positive clocks and dollars).
* ``determinism_under_rerun`` — two in-process runs of one config are
  bit-identical (catches hidden global state: module caches, GC-order
  dependencies, shared RNG objects).
* ``replay_matches_exact`` — a recorded trace replayed through the
  replay substrate reproduces the exact run bit for bit (PR 3's
  contract, over the whole sampled space instead of golden points).
* ``fault_invariance`` — stripping the fault axes changes clocks and
  dollars, never a loss float; chaos only ever *adds* time and cost
  (the sound core of "monotone in crash rate": pointwise monotonicity
  across different crash schedules is not a theorem — two schedules
  are not nested — but clean <= faulted always is).
* ``stat_sibling_invariance`` — flipping a systems axis (platform,
  channel, pattern, straggler jitter) off a BSP config leaves the
  sorted (epoch, worker, loss) trajectory bit-identical: the
  canonical-rank-order-fold guarantee that underwrites two-phase
  sweeps.
* ``sweep_roundtrip`` — a sweep of two statistical fingerprints (so
  phase 0 crosses the pool) produces byte-identical artifacts pooled vs
  serial, and resuming it immediately afterwards runs zero points.

A default BSP run computes its statistics in the lockstep pass and
replays them, so ``replay_matches_exact``, ``fault_invariance`` and
``stat_sibling_invariance`` train their exact side(s) with
:class:`~repro.substrate.PerRankSubstrate`, rank by rank in the engine:
compared with another lockstep run, they could not fail.

NaN losses are tolerated everywhere (a diverging learning rate is a
statistical outcome, not a bug) but must be *deterministically* NaN:
trajectory comparisons treat NaN == NaN.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from typing import Callable

from repro.core.config import TrainingConfig, config_validity_error
from repro.core.driver import train
from repro.errors import ReproError
from repro.faults import unit_draw
from repro.fuzz.space import SEED_LADDER
from repro.substrate import ExactSubstrate, PerRankSubstrate, ReplaySubstrate

#: TrainingConfig fields that make up the fault plane. Stripping them
#: from a scenario yields its fault-free twin.
FAULT_FIELDS = (
    "crash_rate",
    "mttf_s",
    "storage_error_rate",
    "storage_retry_limit",
    "storage_retry_base_s",
    "cold_start_jitter",
    "checkpoint_interval",
)


@dataclass(frozen=True)
class Invariant:
    """One checkable property of the TrainingConfig x FaultPlan space."""

    name: str
    description: str
    #: Campaign-level sampling probability. ``completes`` always runs;
    #: the multi-training invariants are dialled down so a budget buys
    #: breadth first and each extra property still gets dozens of
    #: scenarios per 200-budget campaign.
    probability: float
    applies: Callable[[dict], bool]
    check: Callable[[dict], "str | None"]

    def gated_on(self, seed: int, index: int) -> bool:
        """Deterministically decide whether scenario ``index`` runs this.

        Pure function of (campaign seed, invariant name, index): the
        same campaign always checks the same properties on the same
        scenarios, so a campaign report is reproducible from its seed.
        """
        if self.probability >= 1.0:
            return True
        return unit_draw(seed, f"invariant-gate/{self.name}", index) < self.probability


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------
def _config(kwargs: dict) -> TrainingConfig:
    return TrainingConfig(**kwargs)


def _floats_equal(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _trajectory(result) -> list[tuple[float, int, float]]:
    return [(p.epoch, p.worker, float(p.loss)) for p in result.history]


def _trajectories_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(
        ea == eb and wa == wb and _floats_equal(la, lb)
        for (ea, wa, la), (eb, wb, lb) in zip(a, b)
    )


def _describe_mismatch(what: str, a, b) -> str:
    return f"{what} differ: {a!r} vs {b!r}"


def _compare_results(first, second, what: str) -> str | None:
    """Bit-level equality of two RunResults' observable surface."""
    if not _floats_equal(first.duration_s, second.duration_s):
        return _describe_mismatch(f"{what}: duration_s", first.duration_s, second.duration_s)
    if not _floats_equal(first.cost_total, second.cost_total):
        return _describe_mismatch(f"{what}: cost_total", first.cost_total, second.cost_total)
    if not _floats_equal(first.final_loss, second.final_loss):
        return _describe_mismatch(f"{what}: final_loss", first.final_loss, second.final_loss)
    if first.converged != second.converged:
        return _describe_mismatch(f"{what}: converged", first.converged, second.converged)
    if first.epochs != second.epochs or first.comm_rounds != second.comm_rounds:
        return _describe_mismatch(
            f"{what}: epochs/rounds",
            (first.epochs, first.comm_rounds),
            (second.epochs, second.comm_rounds),
        )
    if not _trajectories_equal(_trajectory(first), _trajectory(second)):
        return f"{what}: loss trajectories diverge"
    return None


def _is_bsp(kwargs: dict) -> bool:
    return kwargs.get("protocol", "bsp") == "bsp"


def _timing_coupled(kwargs: dict) -> bool:
    return _config(kwargs).timing_coupled


def _has_faults(kwargs: dict) -> bool:
    return any(kwargs.get(name) for name in ("crash_rate", "mttf_s", "storage_error_rate"))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
def check_completes(kwargs: dict) -> str | None:
    try:
        result = train(_config(kwargs))
    except ReproError as exc:
        return f"valid config failed to train: {type(exc).__name__}: {exc}"
    trajectory = _trajectory(result)
    if not trajectory:
        return "run completed with an empty evaluation history"
    pairs = [(epoch, worker) for epoch, worker, _ in trajectory]
    if len(set(pairs)) != len(pairs):
        dupes = sorted({p for p in pairs if pairs.count(p) > 1})
        return f"duplicated evaluations for (epoch, worker) {dupes[:4]}"
    workers = kwargs.get("workers", 10)
    missing = set(range(workers)) - {worker for _, worker, _ in trajectory}
    if missing:
        return f"lost evaluations: rank(s) {sorted(missing)} never recorded a loss"
    if not result.duration_s > 0:
        return f"non-positive duration {result.duration_s!r}"
    if not result.cost_total > 0:
        return f"non-positive cost {result.cost_total!r}"
    if result.meta["events"]["crashes"] and not result.meta["events"]["reincarnations"] and _config(kwargs).platform == "faas":
        return "FaaS crashes occurred but no successor was ever spawned"
    return None


def check_determinism_under_rerun(kwargs: dict) -> str | None:
    first = train(_config(kwargs))
    second = train(_config(kwargs))
    return _compare_results(first, second, "rerun")


def check_replay_matches_exact(kwargs: dict) -> str | None:
    # The exact side runs rank by rank in the engine: an ExactSubstrate
    # run is the lockstep pass replayed, so replaying its trace again
    # could only agree with it.
    recording = ExactSubstrate()
    train(_config(kwargs), substrate=recording)
    exact = train(_config(kwargs), substrate=PerRankSubstrate())
    replayed = train(_config(kwargs), substrate=ReplaySubstrate(recording.trace))
    return _compare_results(exact, replayed, "replay-vs-exact")


def check_fault_invariance(kwargs: dict) -> str | None:
    clean_kwargs = {k: v for k, v in kwargs.items() if k not in FAULT_FIELDS}
    # The faulted side restores deep-copied per-rank state after each
    # crash; a default (lockstep) run would only rewind replay cursors
    # over the very trace the clean run replays.
    faulted = train(_config(kwargs), substrate=PerRankSubstrate())
    clean = train(_config(clean_kwargs))
    faulted_traj = sorted(_trajectory(faulted), key=lambda p: (p[0], p[1]))
    clean_traj = sorted(_trajectory(clean), key=lambda p: (p[0], p[1]))
    if not _trajectories_equal(faulted_traj, clean_traj):
        return (
            "fault axes changed the loss trajectory "
            f"({len(faulted_traj)} vs {len(clean_traj)} evaluations)"
        )
    if faulted.duration_s < clean.duration_s:
        return (
            "chaos made the run faster: faulted duration "
            f"{faulted.duration_s} < clean {clean.duration_s}"
        )
    if faulted.cost_total < clean.cost_total:
        return (
            "chaos made the run cheaper: faulted cost "
            f"{faulted.cost_total} < clean {clean.cost_total}"
        )
    return None


def sibling_kwargs(kwargs: dict) -> dict | None:
    """A valid config sharing ``kwargs``' statistical fingerprint.

    Preference order: flip the *platform* (lambdaml <-> pytorch — the
    strongest cross-check, FaaS patterns vs the IaaS collective), then
    a FaaS channel or pattern flip, then the straggler-jitter flip that
    is valid everywhere. Returns ``None`` only if every candidate is
    somehow invalid (never, in practice).
    """
    system = kwargs.get("system", "lambdaml")
    candidates: list[dict] = []
    if system in ("lambdaml", "pytorch"):
        # Drop channel/pattern (FaaS-only axes) and the whole fault
        # plane from a platform flip: fault axes are trajectory-neutral
        # by fault_invariance, and keeping a FaaS-scale MTTF on an IaaS
        # sibling would chain restart-from-scratch recoveries forever.
        flipped = {k: v for k, v in kwargs.items() if k not in FAULT_FIELDS}
        flipped["system"] = "pytorch" if system == "lambdaml" else "lambdaml"
        if flipped["system"] == "pytorch":
            flipped.pop("channel", None)
            flipped.pop("pattern", None)
        candidates.append(flipped)
    if system == "lambdaml":
        channel = kwargs.get("channel", "s3")
        candidates.append({**kwargs, "channel": "memcached" if channel == "s3" else "s3"})
        pattern = kwargs.get("pattern", "allreduce")
        candidates.append(
            {**kwargs, "pattern": "scatterreduce" if pattern == "allreduce" else "allreduce"}
        )
    jitter = kwargs.get("straggler_jitter", 0.05)
    candidates.append({**kwargs, "straggler_jitter": 0.2 if jitter != 0.2 else 0.0})
    for candidate in candidates:
        if candidate != kwargs and config_validity_error(candidate) is None:
            return candidate
    return None


def check_stat_sibling_invariance(kwargs: dict) -> str | None:
    sibling = sibling_kwargs(kwargs)
    if sibling is None:
        return None  # no valid sibling to compare against
    # Rank by rank in the engine, so each side's floats go through its
    # own platform's aggregation path rather than the lockstep pass.
    base = train(_config(kwargs), substrate=PerRankSubstrate())
    other = train(_config(sibling), substrate=PerRankSubstrate())
    base_traj = sorted(_trajectory(base), key=lambda p: (p[0], p[1]))
    other_traj = sorted(_trajectory(other), key=lambda p: (p[0], p[1]))
    if not _trajectories_equal(base_traj, other_traj):
        flipped = sorted(
            name
            for name in set(sibling) | set(kwargs)
            if sibling.get(name) != kwargs.get(name)
        )
        return (
            f"flipping systems axes {flipped} changed the loss trajectory — "
            "aggregation is not folding in canonical rank order"
        )
    return None


def check_sweep_roundtrip(kwargs: dict) -> str | None:
    from repro.sweep.grid import SweepPoint
    from repro.sweep.orchestrator import run_sweep

    # A second seed is a second statistical fingerprint: phase 0 then
    # records twice, which is what puts the sweep on the process pool.
    seed = _config(kwargs).seed
    variants = {
        "base": dict(kwargs),
        "reseeded": {**kwargs, "seed": next(s for s in SEED_LADDER if s != seed)},
        "sibling": sibling_kwargs(kwargs),
    }
    points = [
        SweepPoint(experiment="fuzz", label=label, config_kwargs=variant)
        for label, variant in variants.items()
        if variant is not None
    ]

    def strip_meta(artifact: dict) -> dict:
        return {key: value for key, value in artifact.items() if key != "meta"}

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-sweep-") as tmp:
        serial = run_sweep(points, out_dir=f"{tmp}/serial", jobs=1)
        pooled = run_sweep(points, out_dir=f"{tmp}/pool", jobs=2)
        if pooled.failed:
            return f"pooled sweep lost {len(pooled.failed)} point(s): {pooled.failed[0]['reason']}"
        if pooled.recorded != 2:
            return f"pooled sweep recorded {pooled.recorded} trace(s), expected 2"
        serial_artifacts = [strip_meta(a) for a in serial.artifacts]
        pooled_artifacts = [strip_meta(a) for a in pooled.artifacts]
        if serial_artifacts != pooled_artifacts:
            return "pooled sweep artifacts differ from serial ones"
        resumed = run_sweep(points, out_dir=f"{tmp}/serial", jobs=1, resume=True)
        if resumed.ran != 0 or resumed.skipped != len(points):
            return (
                "resume of a completed sweep was not a no-op: "
                f"ran {resumed.ran}, skipped {resumed.skipped} of {len(points)}"
            )
        if [strip_meta(a) for a in resumed.artifacts] != serial_artifacts:
            return "resumed artifacts differ from the originals"
    return None


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------
INVARIANTS: dict[str, Invariant] = {
    inv.name: inv
    for inv in (
        Invariant(
            name="completes",
            description="valid configs train to completion with a consistent "
            "evaluation log and positive clocks and dollars",
            probability=1.0,
            applies=lambda kwargs: True,
            check=check_completes,
        ),
        Invariant(
            name="determinism_under_rerun",
            description="two in-process runs of one config are bit-identical",
            probability=0.25,
            applies=lambda kwargs: True,
            check=check_determinism_under_rerun,
        ),
        Invariant(
            name="replay_matches_exact",
            description="a recorded trace replays bit-identically to the "
            "exact run (BSP only; timing-coupled configs have no trace)",
            probability=0.3,
            applies=lambda kwargs: not _timing_coupled(kwargs),
            check=check_replay_matches_exact,
        ),
        Invariant(
            name="fault_invariance",
            description="stripping the fault axes never changes a loss float, "
            "and chaos only adds time and cost",
            probability=0.6,
            applies=lambda kwargs: _is_bsp(kwargs) and _has_faults(kwargs),
            check=check_fault_invariance,
        ),
        Invariant(
            name="stat_sibling_invariance",
            description="flipping a systems axis (platform/channel/pattern/"
            "stragglers) leaves the loss trajectory bit-identical",
            probability=0.45,
            applies=lambda kwargs: not _timing_coupled(kwargs),
            check=check_stat_sibling_invariance,
        ),
        Invariant(
            name="sweep_roundtrip",
            description="pooled and serial sweeps produce byte-identical "
            "artifacts and a finished sweep resumes with zero pending points",
            probability=0.06,
            applies=lambda kwargs: not _timing_coupled(kwargs) and not _has_faults(kwargs),
            check=check_sweep_roundtrip,
        ),
    )
}
