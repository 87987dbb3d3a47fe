"""Metric tables: names, units, directions, regression bounds.

BENCHMARK.json at the repo root lists the same metrics (the self-test
asserts the two agree); this module is what the code reads.
"""

from __future__ import annotations

DEFAULT_SEED = 20210620  # the repo-wide default (repro.config.DEFAULT_SEED)

# Why each workload exists (one line each; README.md has the long form).
WORKLOADS = {
    "train_exact": "numpy-bound: data/models/optim/substrate.exact do ~95 % of the "
                   "work, the engine sees a few hundred events",
    "scatter_w128": "engine + storage bound, zero numpy: O(W^2) keys per round, "
                    "prefix-count waiters, chunked key index, same-instant batches",
    "allreduce_w1024": "same layers used differently: O(W) keys, exact-key waiters, "
                       "leader fan-in, ~4 events per instant, peak heap 1024",
    "sweep_replay": "many tiny simulations: per-point fixed costs (context build, "
                    "hashing, artifact JSON, trace load) and the fault plane",
    "service_panel": "the service tier: schedulers, BaselineProvider and shared "
                     "ServiceQueues; mostly isolated trainings issued by the provider",
    "serving_traffic": "the serving tier: sha256 arrival draws, replica pool, "
                       "autoscaler, many short-lived processes, no storage, no numpy",
}


# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
# The three host times are seconds at reference host speed (probe.py);
# their bounds are as wide as BENCHMARK.json allows because the shared
# development host is that noisy (README.md, "Noise protocol").
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]
# failed output checks / checks attempted; any rise is a regression. It
# is 0 on a healthy tree, so BENCHMARK.json (whose metrics must never be
# 0) carries it as the result line's `failed` / `attempted` instead.
FAILED_FRAC = ("failed_frac", "ratio", "lower", 0.0)

# Simulated statistics and exact counts: a speed-only change must leave
# every one of these identical (`compare` exits non-zero otherwise).
EXACT = {
    "core.sim_duration_s", "core.comm_rounds", "pricing.sim_cost_usd",
    "simulation.events", "simulation.batches", "simulation.events_per_batch",
    "simulation.peak_heap",
    "storage.ops_booked", "storage.requests_billed", "storage.keys_live_end",
    "storage.index_ops", "data.rows",
    "faults.crashes", "faults.storage_retries", "faults.checkpoints",
    "sweep.points", "sweep.recorded", "sweep.replayed",
    "service.engines_built", "service.events", "service.jobs",
    "serving.requests", "serving.events", "serving.cold_starts",
}

# (name, unit, better). A metric that does not apply to a workload
# (serving.* on train_exact) reads 0 there.
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("data.synth_s", "s", "lower"),
    ("data.rows", "count", "lower"),
    ("core.build_s", "s", "lower"),
    ("core.launch_s", "s", "lower"),
    ("core.finalize_s", "s", "lower"),
    ("core.sim_duration_s", "s", "lower"),
    ("core.comm_rounds", "count", "lower"),
    ("pricing.sim_cost_usd", "usd", "lower"),
    ("substrate.compute_s", "s", "lower"),
    ("substrate.compute_share", "ratio", "lower"),
    ("substrate.record_s", "s", "lower"),
    ("simulation.run_s", "s", "lower"),
    ("simulation.self_s", "s", "lower"),
    ("simulation.events", "count", "lower"),
    ("simulation.batches", "count", "lower"),
    ("simulation.events_per_batch", "count", "higher"),
    ("simulation.peak_heap", "count", "lower"),
    ("simulation.us_per_event", "us", "lower"),
    ("simulation.events_per_s", "1/s", "higher"),
    ("storage.ops_booked", "count", "lower"),
    ("storage.requests_billed", "count", "lower"),
    ("storage.keys_live_end", "count", "lower"),
    ("storage.index_us_per_op", "us", "lower"),
    ("storage.index_ops", "count", "lower"),
    ("faults.crashes", "count", "lower"),
    ("faults.storage_retries", "count", "lower"),
    ("faults.checkpoints", "count", "lower"),
    ("sweep.points", "count", "higher"),
    ("sweep.plan_s", "s", "lower"),
    ("sweep.run_s", "s", "lower"),
    ("sweep.point_wall_sum_s", "s", "lower"),
    ("sweep.overhead_s", "s", "lower"),
    ("sweep.overhead_ms_per_point", "ms", "lower"),
    ("sweep.resume_s", "s", "lower"),
    ("sweep.scan_s", "s", "lower"),
    ("sweep.artifact_bytes", "bytes", "lower"),
    ("sweep.recorded", "count", "lower"),
    ("sweep.replayed", "count", "higher"),
    ("sweep.pooled_run_s", "s", "lower"),
    ("service.baselines_s", "s", "lower"),
    ("service.simulate_s", "s", "lower"),
    ("service.provider_s", "s", "lower"),
    ("service.metrics_s", "s", "lower"),
    ("service.engines_built", "count", "lower"),
    ("service.events", "count", "lower"),
    ("service.jobs", "count", "higher"),
    ("service.ms_per_job", "ms", "lower"),
    ("serving.traffic_s", "s", "lower"),
    ("serving.build_s", "s", "lower"),
    ("serving.run_s", "s", "lower"),
    ("serving.metrics_s", "s", "lower"),
    ("serving.requests", "count", "higher"),
    ("serving.events", "count", "lower"),
    ("serving.us_per_request", "us", "lower"),
    ("serving.cold_starts", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.stats_overhead_frac", "ratio", "lower"),
    ("trace.unaccounted_frac", "ratio", "lower"),
]
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
