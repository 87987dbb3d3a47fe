"""Golden regression for the engine's dispatch profile, per regime.

The traced ledger gates check event counts on six big workloads, in CI
only. This file pins, for small twins of each regime, what every engine
built during one run dispatched: ``EngineStats`` (events, batches, peak
pending events, the full per-callsite count) plus ``float.hex`` of the
run's simulated duration and dollars:

* ScatterReduce at W=16, replayed from its recording (O(W^2) keys per
  round, same-instant chunk completions);
* AllReduce at W=64 (O(W) keys, leader fan-in);
* one sweep point with crashes and transient storage errors (the fault
  plane's monitors are daemons);
* one FaaS bursty serving cell and one always-on IaaS cell, and two
  FaaS diurnal cells, one per scaler that reads the pool's state
  (``concurrency``, ``queue_depth``): the diurnal inversion and the
  autoscalers' decisions, pinned at engine level;
* a two-class service panel (isolated baselines, then one shared engine);
* a FaaS run whose 60 s function lifetime forces Figure-5 checkpoint and
  re-invocations, alone and under crash injection (the round boundary's
  order: recovery checkpoint, then the lifetime check);
* an IaaS ``system="pytorch"`` BSP run (MPI ring exchange, no channel).

A change to the event queue must leave every number here (the pins
``dispatch.<regime>``) unchanged: the same events, in the same order.
"""

from __future__ import annotations

import pytest

from pins import pinned, register
from repro.core.config import TrainingConfig
from repro.core.driver import train
from repro.service import (
    BaselineProvider,
    JobRequest,
    ServiceRuntime,
    make_scheduler,
    poisson_arrivals,
    service_metrics,
)
from repro.serving import ServedModel, ServingConfig, ServingRuntime, serving_metrics
from repro.simulation.engine import capture_stats
from repro.substrate import ExactSubstrate, ReplaySubstrate

REPLAY = dict(model="lr", dataset="higgs", algorithm="ga_sgd", system="lambdaml",
              channel="s3", data_scale=2000, batch_size=10000, lr=0.05,
              loss_threshold=None, seed=20210620)
JOB_CLASSES = (
    dict(model="lr", dataset="higgs", workers=4, max_epochs=1.0, data_scale=1000,
         channel="s3", seed=11),
    dict(model="svm", dataset="higgs", workers=8, max_epochs=1.0, data_scale=1000,
         channel="s3", pattern="scatterreduce", seed=11),
)
SERVED = ServedModel(
    name="lr", model="lr", dataset="higgs", param_bytes=28 * 8, final_loss=0.64,
    converged=True, quality="converged@0.6400", training_cost=0.01, training_s=60.0,
    source="test",
)


def _replayed(**overrides):
    config = TrainingConfig(**REPLAY, **overrides)
    recording = ExactSubstrate()
    train(config, recording)
    with capture_stats() as stats:
        result = train(config, ReplaySubstrate(recording.trace))
    return stats, result.duration_s, result.cost_total


def scatter_w16():
    return _replayed(workers=16, pattern="scatterreduce", max_epochs=0.5)


def allreduce_w64():
    return _replayed(workers=64, pattern="allreduce", max_epochs=1.0)


def faulted_sweep_point():
    config = TrainingConfig(
        model="lr", dataset="higgs", algorithm="admm", system="lambdaml",
        data_scale=2000, max_epochs=4, loss_threshold=0.66, batch_size=10000,
        lr=0.05, workers=10, mttf_s=120.0, storage_error_rate=0.05, seed=20210620,
    )
    with capture_stats() as stats:
        result = train(config)
    events = result.meta["events"]
    assert events["crashes"] > 0 and events["storage_retries"] > 0, events
    return stats, result.duration_s, result.cost_total


def _faas_lifetime(mttf_s):
    config = TrainingConfig(**REPLAY, workers=8, max_epochs=1.0,
                            lambda_lifetime_s=60.0, mttf_s=mttf_s)
    with capture_stats() as stats:
        result = train(config)
    events = result.meta["events"]
    assert events["lifetime_reinvocations"] > 0, events
    assert (events["crashes"] > 0) == (mttf_s is not None), events
    return stats, result.duration_s, result.cost_total


def faas_lifetime_reinvoked():
    return _faas_lifetime(None)


def faas_lifetime_crashes():
    return _faas_lifetime(300.0)


def iaas_pytorch_bsp():
    config = TrainingConfig(**{**REPLAY, "system": "pytorch"}, workers=8, max_epochs=1.0)
    with capture_stats() as stats:
        result = train(config)
    return stats, result.duration_s, result.cost_total


def _serving(platform, traffic, autoscaler, min_replicas):
    config = ServingConfig(
        model="lr", dataset="higgs", platform=platform, traffic=traffic,
        autoscaler=autoscaler, requests=1500, rate_rps=200.0,
        min_replicas=min_replicas, max_replicas=32, seed=20210620,
    )
    with capture_stats() as stats:
        records, pool = ServingRuntime(config, SERVED).run()
    card = serving_metrics(records, pool)
    return stats, card["makespan_s"], card["total_cost"]


def serving_faas_bursty():
    return _serving("faas", "bursty", "queue_depth", 1)


def serving_iaas_poisson():
    return _serving("iaas", "poisson", "fixed", 4)


def serving_faas_diurnal_concurrency():
    return _serving("faas", "diurnal", "concurrency", 1)


def serving_faas_diurnal_queue_depth():
    return _serving("faas", "diurnal", "queue_depth", 1)


def service_two_classes():
    arrivals = poisson_arrivals(20210620, 3600.0, 6)
    requests = [
        JobRequest(f"j{i:03d}", f"acct{i % 2}", t, dict(JOB_CLASSES[i % 2]))
        for i, t in enumerate(arrivals)
    ]
    with capture_stats() as stats:
        runtime = ServiceRuntime(requests, make_scheduler("fair_share"), 2,
                                 BaselineProvider())
        records = runtime.run()
    card = service_metrics(records)
    return stats, card["makespan_s"], card["total_cost"]


REGIMES = {
    "scatter_w16_replayed": scatter_w16,
    "allreduce_w64": allreduce_w64,
    "faulted_sweep_point": faulted_sweep_point,
    "serving_faas_bursty": serving_faas_bursty,
    "serving_iaas_poisson": serving_iaas_poisson,
    "service_two_classes": service_two_classes,
    "serving_faas_diurnal_concurrency": serving_faas_diurnal_concurrency,
    "serving_faas_diurnal_queue_depth": serving_faas_diurnal_queue_depth,
    "faas_lifetime_reinvoked": faas_lifetime_reinvoked,
    "faas_lifetime_crashes": faas_lifetime_crashes,
    "iaas_pytorch_bsp": iaas_pytorch_bsp,
}


@register("dispatch", keys=REGIMES)
def _snapshot(name: str) -> dict:
    stats, duration, dollars = REGIMES[name]()
    return {
        "engines": [
            {"events": s.events, "batches": s.batches, "peak_heap": s.peak_heap,
             "by_callsite": dict(sorted(s.by_callsite.items()))}
            for s in stats
        ],
        "duration_hex": float(duration).hex(),
        "dollars_hex": float(dollars).hex(),
    }


@pytest.mark.parametrize("name", sorted(REGIMES))
def test_dispatch_matches_the_golden(name):
    assert _snapshot(name) == pinned(f"dispatch.{name}")


def test_the_golden_runs_are_not_trivial():
    golden = {name: pinned(f"dispatch.{name}") for name in REGIMES}
    for name, entry in golden.items():
        assert entry["engines"], name
        for engine in entry["engines"]:
            assert sum(engine["by_callsite"].values()) == engine["events"], name
        # Every regime has instants with more than one event.
        assert max(e["events"] - e["batches"] for e in entry["engines"]) > 0, name
    busiest = max(golden["scatter_w16_replayed"]["engines"], key=lambda e: e["events"])
    assert busiest["peak_heap"] >= 16
