"""Golden determinism regression for the engine's indexed data plane.

The storage/event hot-path refactor (sorted key index, dict-keyed
waiter registries, heap slot picker, batched poll billing) must not
move a single simulated clock tick, trace second, or billed dollar.
This test replays small reference jobs and compares `engine.now`,
per-process :class:`TimeBreakdown` totals, and :class:`CostMeter`
totals against values recorded on the pre-refactor seed engine
(commit ea1bc81), the pins ``engine.<job>``. Each job is also run twice
in-process to catch run-to-run nondeterminism.
"""

from __future__ import annotations

import pytest

from pins import pinned, register
from repro.core.config import TrainingConfig
from repro.core.driver import train


def _reference_configs() -> dict[str, TrainingConfig]:
    base = dict(
        model="lr",
        dataset="higgs",
        workers=3,
        batch_size=10_000,
        lr=0.05,
        max_epochs=2,
        seed=21,
    )
    return {
        "faas_s3_scatterreduce": TrainingConfig(
            algorithm="ga_sgd", system="lambdaml", channel="s3",
            pattern="scatterreduce", **base,
        ),
        "faas_redis_allreduce": TrainingConfig(
            algorithm="ma_sgd", system="lambdaml", channel="redis",
            channel_prestarted=True, pattern="allreduce", **base,
        ),
        "iaas_pytorch": TrainingConfig(
            algorithm="ga_sgd", system="pytorch", **base,
        ),
    }


@register("engine", keys=_reference_configs())
def _snapshot(name: str) -> dict:
    """Run one reference job; extract every value that must not move."""
    result = train(_reference_configs()[name])
    return {
        "duration_s": result.duration_s,
        "cost_total": result.cost_total,
        "cost_breakdown": dict(sorted(result.cost_breakdown.items())),
        "per_worker_traces": [
            dict(sorted(trace.seconds.items())) for trace in result.per_worker
        ],
        "comm_rounds": result.comm_rounds,
        "epochs": result.epochs,
        # Comparable across processes since data generation moved to
        # stable_hash (seed-era data depended on PYTHONHASHSEED, so the
        # original golden recording pinned times/costs only; the loss
        # values here were re-recorded after the hash fix, with every
        # timing field verified unchanged against the seed recording).
        "final_loss": result.final_loss,
    }


@pytest.mark.parametrize("name", sorted(_reference_configs()))
def test_golden_engine_values(name: str) -> None:
    first = _snapshot(name)
    assert first == pinned(f"engine.{name}"), f"{name}: drifted from seed engine"
    second = _snapshot(name)
    assert second == first, f"{name}: run-to-run nondeterminism"
