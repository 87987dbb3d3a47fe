"""The six ledger workloads.

Every workload is batch / closed-loop from one process: the benchmark
calls the simulator and waits for the result. Each has

* ``setup(tracer)``   untimed: cold dataset synthesis, trace recording,
                      baseline sweeps — everything the timed section
                      needs but a user would pay once;
* ``section(tracer)`` the timed section. With ``NO_TRACE`` it is the
                      plain public call sequence; with a ``Tracer`` the
                      same calls run under spans (for the three training
                      workloads: the four public steps ``train()`` is
                      made of, so ``substrate.compute_seconds`` can be
                      read at each boundary);
* ``digest`` / ``checks`` / ``counts`` over the section's outputs.

Three scales share the code: ``full`` is the ledger a person reads
(5-15 s sections, ISSUE 11's sizes), ``gate`` keeps each workload's
regime but fits BENCHMARK.json's run budget (0.5-1 s sections, many
repeats), ``smoke`` is the tier-1 self-test.

Only public functions are imported and nothing is patched.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from pathlib import Path

from repro.api import Scenario
from repro.core.config import TrainingConfig
from repro.core.context import JobContext
from repro.core.driver import finalize_job, launch_job, train
from repro.data.datasets import get_spec
from repro.data.synth import generate
from repro.experiments import fig_service, fig_serving
from repro.serving import ModelRegistry, ServingConfig, ServingRuntime, serving_metrics
from repro.serving.workload import arrivals_for
from repro.service import (
    SCHEDULER_NAMES,
    BaselineProvider,
    JobRequest,
    ServiceRuntime,
    make_scheduler,
    poisson_arrivals,
    service_metrics,
)
from repro.storage.ordered_index import OrderedKeyIndex
from repro.substrate import ExactSubstrate, RecordingSubstrate, ReplaySubstrate
from repro.sweep.artifacts import artifact_from_result, scan_artifacts
from repro.sweep.orchestrator import plan_sweep, run_sweep



class _NoTrace:
    """Tracing off: no clock reads, no span objects."""

    def span(self, name: str):
        return nullcontext()

    def metered(self, name: str, seconds: float) -> None:
        pass


NO_TRACE = _NoTrace()


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------
def sig6(value):
    """Round a float to 6 significant figures (loss digests)."""
    return float(f"{value:.6g}")


def sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def result_payload(result) -> dict:
    """The simulated statistics of one RunResult a speed-only change
    must leave untouched."""
    return {
        "duration_s": result.duration_s,
        "cost_total": result.cost_total,
        "comm_rounds": result.comm_rounds,
        "cost_breakdown": dict(result.cost_breakdown),
        "events": dict(result.events),
        "final_loss": sig6(result.final_loss),
        "losses": [sig6(p.loss) for p in result.history],
    }


def synth(tracer, config: TrainingConfig) -> int:
    """Cold-generate `config`'s dataset under a span; returns its rows.

    Called with exactly the arguments ``ExactSubstrate`` uses, so the
    trainings that follow hit ``generate``'s cache.
    """
    scale = config.data_scale or get_spec(config.dataset).default_scale
    with tracer.span("data.synth"):
        split = generate(config.dataset, scale=scale, seed=config.seed)
    return split.n_train + split.X_val.shape[0]


def train_in_steps(tracer, config: TrainingConfig, substrate):
    """``train()`` spelled as the four public steps it is made of.

    The substrate's own ``compute_seconds`` meter is read at each
    boundary and recorded as a child span, so engine self time is what
    remains of ``simulation.run``.
    """
    with tracer.span("core.build"):
        ctx = JobContext(config, substrate=substrate)
        tracer.metered("substrate.compute", substrate.compute_seconds)
    seen = substrate.compute_seconds
    with tracer.span("core.launch"):
        launch_job(ctx)
    with tracer.span("simulation.run"):
        ctx.engine.run()
        tracer.metered("substrate.compute", substrate.compute_seconds - seen)
    seen = substrate.compute_seconds
    with tracer.span("core.finalize"):
        result = finalize_job(ctx, 0.0, ctx.engine.now)
        tracer.metered("substrate.compute", substrate.compute_seconds - seen)
    return result, ctx


def add_storage_counts(totals: dict, ctx) -> None:
    """Add one finished job context's exact storage-layer counts."""
    stores = [ctx.data_store]
    if ctx.channel is not None:
        stores.append(ctx.channel.store)
    counts = {
        "storage.ops_booked": sum(store.queue.ops_booked for store in stores),
        "storage.requests_billed": sum(
            count for name, count in ctx.meter.counters.items()
            if not name.startswith("lambda")),
        "storage.keys_live_end": sum(len(store) for store in stores),
    }
    for name, count in counts.items():
        totals[name] = totals.get(name, 0) + count


def run_counts(payloads: list[dict]) -> dict:
    """Simulated seconds / dollars / rounds / fault events, summed."""
    def events(key):
        return sum(p["events"].get(key, 0) for p in payloads)

    return {
        "core.sim_duration_s": sum(p["duration_s"] for p in payloads),
        "core.comm_rounds": sum(p["comm_rounds"] for p in payloads),
        "pricing.sim_cost_usd": sum(p["cost_total"] for p in payloads),
        "faults.crashes": events("crashes"),
        "faults.storage_retries": events("storage_retries"),
        "faults.checkpoints": events("checkpoints"),
    }


class Workload:
    """Common shape; see the module docstring."""

    name = ""

    def __init__(self, params: dict, seed: int, workdir: Path) -> None:
        self.params = params
        self.seed = seed
        self.workdir = workdir
        self.rows = 0  # dataset rows synthesized in set-up
        # Exact storage counts of the last traced section's job contexts.
        self.storage: dict = {}

    def describe(self) -> str:
        raise NotImplementedError

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def section(self, tracer=NO_TRACE):
        raise NotImplementedError

    def payload(self, out) -> object:
        """JSON-able simulated statistics of one section's outputs."""
        raise NotImplementedError

    def digest(self, out) -> str:
        return sha(self.payload(out))

    def checks(self, out) -> dict[str, bool]:
        return {}

    def counts(self, out) -> dict:
        raise NotImplementedError

    def layers(self, tracer, root, out) -> dict:
        """Workload-specific per-layer metrics of one traced section."""
        return dict(self.storage)

    def extras(self, tracer, out) -> tuple[dict, dict[str, bool]]:
        """Traced-run-only passes; (more per-layer metrics, checks)."""
        return {}, {}

    def engine_metrics(self, stats: list) -> dict:
        """Tier-specific readings of pass B's per-engine ``EngineStats``."""
        return {}


# ---------------------------------------------------------------------------
# train_exact
# ---------------------------------------------------------------------------
class TrainExact(Workload):
    name = "train_exact"

    def __init__(self, params, seed, workdir) -> None:
        super().__init__(params, seed, workdir)
        self.configs = [
            Scenario.workload(model, dataset, seed=seed, **overrides).config()
            for model, dataset, overrides in params["trainings"]
        ]

    def describe(self) -> str:
        return "exact train() x3: " + "; ".join(c.describe() for c in self.configs)

    def setup(self, tracer) -> None:
        self.rows = sum(synth(tracer, config) for config in self.configs)

    def section(self, tracer=NO_TRACE):
        if tracer is NO_TRACE:
            return [train(config) for config in self.configs]
        self.storage = {}
        results = []
        for config in self.configs:
            result, ctx = train_in_steps(tracer, config, ExactSubstrate())
            add_storage_counts(self.storage, ctx)
            results.append(result)
        return results

    def payload(self, out):
        return [result_payload(r) for r in out]

    def counts(self, out) -> dict:
        return run_counts(self.payload(out))


# ---------------------------------------------------------------------------
# scatter_w128 / allreduce_w1024: one big replayed training
# ---------------------------------------------------------------------------
REPLAY_BASE = dict(
    model="lr", dataset="higgs", algorithm="ga_sgd", system="lambdaml",
    channel="s3", data_scale=500, batch_size=10000, lr=0.05, loss_threshold=None,
)


class BigReplay(Workload):
    """One ``train()`` under ``ReplaySubstrate``; trace recorded in set-up."""

    def __init__(self, params, seed, workdir) -> None:
        super().__init__(params, seed, workdir)
        self.config = TrainingConfig(**REPLAY_BASE, seed=seed, **params)
        self.trace: dict = {}
        self.recorded = None

    def describe(self) -> str:
        return (f"replayed train(): {self.config.describe()} "
                f"max_epochs={self.config.max_epochs:g} data_scale=500 batch_size=10000")

    def setup(self, tracer) -> None:
        self.rows = synth(tracer, self.config)
        with tracer.span("substrate.record"):
            substrate = RecordingSubstrate()
            self.recorded = train(self.config, substrate)
        self.trace = substrate.trace

    def section(self, tracer=NO_TRACE):
        substrate = ReplaySubstrate(self.trace)
        if tracer is NO_TRACE:
            return train(self.config, substrate)
        result, ctx = train_in_steps(tracer, self.config, substrate)
        self.storage = {}
        add_storage_counts(self.storage, ctx)
        return result

    def payload(self, out):
        return [result_payload(out)]

    def checks(self, out) -> dict[str, bool]:
        rec = self.recorded
        return {
            "replay == recording (duration_s, cost_total, history)": (
                out.duration_s == rec.duration_s
                and out.cost_total == rec.cost_total
                and out.history == rec.history
            )
        }

    def counts(self, out) -> dict:
        return run_counts(self.payload(out))


class ScatterW128(BigReplay):
    name = "scatter_w128"


class AllreduceW1024(BigReplay):
    name = "allreduce_w1024"


# ---------------------------------------------------------------------------
# sweep_replay
# ---------------------------------------------------------------------------
SWEEP_BASE = dict(
    model="lr", dataset="higgs", algorithm="admm", system="lambdaml",
    data_scale=2000, max_epochs=4, loss_threshold=0.66, batch_size=10000, lr=0.05,
)
SWEEP_STAT_GROUPS = 2  # the `workers` axis is the only statistical one
# Calibrated (and nothing else was) so the full 864-point section takes
# 8-12 s on the 2-core development host: 600 -> ~7.5 s, 300 -> ~8.5-10.5 s.
SWEEP_MTTF_S = 300.0


class SweepReplay(Workload):
    name = "sweep_replay"

    def __init__(self, params, seed, workdir) -> None:
        super().__init__(params, seed, workdir)
        base = Scenario(**{**SWEEP_BASE, **params.get("base", {})}, seed=seed)
        slices = [{}, {"mttf_s": SWEEP_MTTF_S}, {"storage_error_rate": 0.02}]
        self.points = [
            scenario.point("ledger")
            for faults in slices
            for scenario in base.vary(**faults).grid(**params["axes"])
        ]
        self.base_config = base.config()
        self._runs = 0

    def describe(self) -> str:
        axes = " x ".join(f"{k}{tuple(v)}" for k, v in self.params["axes"].items())
        return (
            f"plan + run_sweep(auto) + resume + scan over {len(self.points)} points: "
            f"lr/higgs admm lambdaml data_scale=2000 max_epochs=4 "
            f"batch_size={self.base_config.batch_size}; {axes} x faults(none, "
            f"mttf_s={SWEEP_MTTF_S:g}, storage_error_rate=0.02)"
        )

    def setup(self, tracer) -> None:
        self.rows = synth(tracer, self.base_config)

    def section(self, tracer=NO_TRACE):
        self._runs += 1
        out_dir = self.workdir / f"sweep-{self._runs}"
        with tracer.span("sweep.plan"):
            plan = plan_sweep(self.points, out_dir=out_dir)
        with tracer.span("sweep.run"):
            first = run_sweep(self.points, out_dir=out_dir, jobs=1, substrate="auto")
            tracer.metered(
                "sweep.points",
                sum(a["meta"]["wall_seconds"] for a in first.artifacts),
            )
        with tracer.span("sweep.resume"):
            again = run_sweep(
                self.points, out_dir=out_dir, jobs=1, substrate="auto", resume=True
            )
        with tracer.span("sweep.scan"):
            valid, corrupt = scan_artifacts(out_dir)
        return {"plan": plan, "first": first, "again": again,
                "valid": valid, "corrupt": corrupt, "out_dir": out_dir}

    def payload(self, out):
        return [a["result"] for a in out["first"].artifacts]

    def checks(self, out) -> dict[str, bool]:
        first, again = out["first"], out["again"]
        n = len(self.points)
        return {
            "sweep: no failed points": first.failed == [] and again.failed == [],
            f"sweep: {SWEEP_STAT_GROUPS} recorded, rest replayed": (
                first.recorded == SWEEP_STAT_GROUPS
                and first.replayed == n - SWEEP_STAT_GROUPS
            ),
            "sweep: resume pass runs 0 points": again.ran == 0 and again.skipped == n,
            f"sweep: scan finds {n} valid / 0 corrupt": (
                len(out["valid"]) == n and not out["corrupt"]
            ),
        }

    def counts(self, out) -> dict:
        return {
            **run_counts(self.payload(out)),
            "sweep.points": out["plan"]["points"],
            "sweep.recorded": out["first"].recorded,
            "sweep.replayed": out["first"].replayed,
        }

    def layers(self, tracer, root, out) -> dict:
        points = len(self.points)
        overhead = tracer.total_self("sweep.run", root)
        return {
            "sweep.plan_s": tracer.total("sweep.plan", root),
            "sweep.run_s": tracer.total("sweep.run", root),
            "sweep.point_wall_sum_s": tracer.total("sweep.points", root),
            "sweep.overhead_s": overhead,
            "sweep.overhead_ms_per_point": overhead / points * 1e3,
            "sweep.resume_s": tracer.total("sweep.resume", root),
            "sweep.scan_s": tracer.total("sweep.scan", root),
            "sweep.artifact_bytes": sum(
                path.stat().st_size for path in out["out_dir"].rglob("*.json")
            ),
        }

    def extras(self, tracer, out):
        """Two passes outside the section.

        ``decomposed`` re-runs every grid point through the four public
        steps (what ``run_task`` does, minus the artifact write) so the
        per-point ``core.*`` / ``simulation.*`` costs the orchestrator
        hides become spans; its results must equal the sweep's
        artifacts. ``pooled`` repeats the sweep with ``jobs=2``
        (informational: pool noise on shared cores).
        """
        traces: dict[str, dict] = {}
        payloads = []
        storage: dict = {}
        with tracer.span("decomposed") as root:
            for point in self.points:
                config = point.config()
                trace = traces.get(config.stat_hash())
                substrate = (
                    RecordingSubstrate() if trace is None else ReplaySubstrate(trace)
                )
                result, ctx = train_in_steps(tracer, config, substrate)
                if trace is None:
                    traces[config.stat_hash()] = substrate.trace
                add_storage_counts(storage, ctx)
                payloads.append(artifact_from_result(point, result)["result"])
        with tracer.span("sweep.pooled") as pooled:
            run_sweep(self.points, out_dir=self.workdir / "sweep-pooled", jobs=2,
                      substrate="auto")
        metrics = {
            **step_metrics(tracer, root),
            **storage,
            "sweep.pooled_run_s": pooled.duration,
        }
        return metrics, {
            "decomposed steps == sweep artifacts": sha(payloads) == self.digest(out)
        }


# ---------------------------------------------------------------------------
# service_panel
# ---------------------------------------------------------------------------
class _SpannedProvider:
    """A ``BaselineProvider`` delegate that spans the two calls the
    service runtime makes into it (isolated trainings happen there)."""

    def __init__(self, provider: BaselineProvider, tracer) -> None:
        self._provider = provider
        self._tracer = tracer

    def result(self, config):
        with self._tracer.span("service.provider"):
            return self._provider.result(config)

    def substrate_for(self, config):
        with self._tracer.span("service.provider"):
            return self._provider.substrate_for(config)


class ServicePanel(Workload):
    """The figS panel: `jobs` Poisson arrivals x 4 schedulers.

    Spelled from the public ``repro.service`` pieces exactly as
    ``fig_service.simulate_schedulers`` spells it, so the simulate and
    metrics steps can be spanned and the job count scaled; at the
    shipped job count the traced run checks the scorecards against
    ``simulate_schedulers`` itself.
    """

    name = "service_panel"

    def __init__(self, params, seed, workdir) -> None:
        super().__init__(params, seed, workdir)
        self.jobs = params["jobs"]
        self.class_points = fig_service.sweep_points(
            max_epochs=params["max_epochs"], seed=seed
        )
        self.artifacts: list[dict] = []

    def describe(self) -> str:
        return (
            f"figS panel: {self.jobs} Poisson jobs @ {fig_service.RATE_PER_HOUR:g}/h x "
            f"{len(SCHEDULER_NAMES)} schedulers, limit {fig_service.MAX_CONCURRENT}, "
            f"classes {[p.label for p in self.class_points]}"
        )

    def setup(self, tracer) -> None:
        self.rows = sum(synth(tracer, p.config()) for p in self.class_points)
        with tracer.span("service.baselines"):
            self.artifacts = run_sweep(self.class_points, jobs=1).artifacts

    def section(self, tracer=NO_TRACE):
        provider = BaselineProvider()
        provider.prime({a["config_hash"]: a for a in self.artifacts})
        if tracer is not NO_TRACE:
            provider = _SpannedProvider(provider, tracer)
        by_class = {a["tags"]["class"]: dict(a["config"]) for a in self.artifacts}
        classes = [by_class[label] for label in sorted(by_class)]
        arrivals = poisson_arrivals(self.seed, fig_service.RATE_PER_HOUR, self.jobs)
        cards, ops, rounds = {}, 0, 0
        for name in SCHEDULER_NAMES:
            requests = [
                JobRequest(f"j{i:03d}", f"acct{i % fig_service.ACCOUNTS}", t,
                           dict(classes[i % len(classes)]))
                for i, t in enumerate(arrivals)
            ]
            with tracer.span("service.simulate"):
                runtime = ServiceRuntime(
                    requests, make_scheduler(name), fig_service.MAX_CONCURRENT, provider
                )
                records = runtime.run()
            with tracer.span("service.metrics"):
                cards[name] = service_metrics(records)
            ops += sum(s["ops"] for s in runtime.service_stats.values())
            rounds += sum(r.comm_rounds for r in runtime.results.values())
        return {"cards": cards, "ops": ops, "rounds": rounds}

    def payload(self, out):
        return out["cards"]

    def counts(self, out) -> dict:
        cards = out["cards"].values()
        return {
            "core.sim_duration_s": sum(c["makespan_s"] for c in cards),
            "core.comm_rounds": out["rounds"],
            "pricing.sim_cost_usd": sum(c["total_cost"] for c in cards),
            "service.jobs": sum(c["jobs"] for c in cards),
        }

    def layers(self, tracer, root, out) -> dict:
        simulate = tracer.total("service.simulate", root)
        return {
            "service.simulate_s": simulate,
            "service.provider_s": tracer.total("service.provider", root),
            "service.metrics_s": tracer.total("service.metrics", root),
            "service.ms_per_job": simulate / (self.jobs * len(SCHEDULER_NAMES)) * 1e3,
            "storage.ops_booked": out["ops"],
        }

    def engine_metrics(self, stats: list) -> dict:
        return {"service.engines_built": len(stats),
                "service.events": sum(s.events for s in stats)}

    def extras(self, tracer, out):
        if self.jobs != fig_service.JOBS:
            return {}, {}
        shipped = fig_service.simulate_schedulers(self.artifacts)["schedulers"]
        return {}, {"panel == fig_service.simulate_schedulers": shipped == out["cards"]}


# ---------------------------------------------------------------------------
# serving_traffic
# ---------------------------------------------------------------------------
SERVING_CELLS = (
    ("faas", "bursty", "queue_depth"),
    ("faas", "diurnal", "concurrency"),
    ("iaas", "poisson", "fixed"),
)


class ServingTraffic(Workload):
    name = "serving_traffic"

    def __init__(self, params, seed, workdir) -> None:
        super().__init__(params, seed, workdir)
        self.train_point = next(
            p for p in fig_serving.sweep_points(seed=seed) if p.tags["class"] == "small"
        )
        self.configs = [
            ServingConfig(
                model="lr", dataset="higgs", platform=platform, traffic=traffic,
                autoscaler=autoscaler, requests=params["requests"], rate_rps=200.0,
                min_replicas=fig_serving.SERVE_MIN_REPLICAS[platform],
                max_replicas=64, seed=seed,
            )
            for platform, traffic, autoscaler in SERVING_CELLS
        ]
        self.entry = None

    def describe(self) -> str:
        cells = ", ".join("/".join(cell) for cell in SERVING_CELLS)
        return (
            f"ServingRuntime.run() + serving_metrics on lr/higgs 'small': cells "
            f"({cells}); requests={self.params['requests']} rate_rps=200 max_replicas=64"
        )

    def setup(self, tracer) -> None:
        self.rows = synth(tracer, self.train_point.config())
        with tracer.span("serving.train"):
            artifact = run_sweep([self.train_point], jobs=1).artifacts[0]
        self.entry = ModelRegistry().register_artifact("small", artifact)

    def section(self, tracer=NO_TRACE):
        cells = []
        for config in self.configs:
            with tracer.span("serving.build"):
                runtime = ServingRuntime(config, self.entry)
            with tracer.span("serving.run"):
                records, pool = runtime.run()
            with tracer.span("serving.metrics"):
                card = serving_metrics(records, pool)
            cells.append({"platform": config.platform, "records": len(records),
                          "card": card})
        return cells

    def payload(self, out):
        return [cell["card"] for cell in out]

    def checks(self, out) -> dict[str, bool]:
        return {
            "serving: every request served": all(
                cell["records"] == self.params["requests"] for cell in out
            ),
            "serving: always-on iaas cell has 0 cold starts": all(
                cell["card"]["cold_starts"] == 0
                for cell in out if cell["platform"] == "iaas"
            ),
        }

    def counts(self, out) -> dict:
        cards = self.payload(out)
        return {
            "core.sim_duration_s": sum(c["makespan_s"] for c in cards),
            "pricing.sim_cost_usd": sum(c["total_cost"] for c in cards),
            "serving.requests": sum(c["requests"] for c in cards),
            "serving.cold_starts": sum(c["cold_starts"] for c in cards),
        }

    def layers(self, tracer, root, out) -> dict:
        run = tracer.total("serving.run", root)
        return {
            "serving.build_s": tracer.total("serving.build", root),
            "serving.run_s": run,
            "serving.metrics_s": tracer.total("serving.metrics", root),
            "serving.us_per_request": run / (len(out) * self.params["requests"]) * 1e6,
        }

    def engine_metrics(self, stats: list) -> dict:
        return {"serving.events": sum(s.events for s in stats)}

    def extras(self, tracer, out):
        # The arrival draws alone (ServingRuntime's constructor makes
        # them too, so this time is inside serving.build_s).
        with tracer.span("serving.traffic") as span:
            for config in self.configs:
                arrivals_for(config)
        return {"serving.traffic_s": span.duration}, {}


# ---------------------------------------------------------------------------
# Span-derived metrics common to every workload, and the index probe
# ---------------------------------------------------------------------------
# Spans whose body is (almost only) ``Engine.run``.
ENGINE_SPANS = ("simulation.run", "service.simulate", "serving.run")


def step_metrics(tracer, root) -> dict:
    """core / substrate / simulation host seconds under one root span."""
    return {
        "core.build_s": tracer.total_self("core.build", root),
        "core.launch_s": tracer.total("core.launch", root),
        "core.finalize_s": tracer.total_self("core.finalize", root),
        "substrate.compute_s": tracer.total("substrate.compute", root),
        "substrate.compute_share": tracer.total("substrate.compute", root) / root.duration,
        "simulation.run_s": sum(tracer.total(name, root) for name in ENGINE_SPANS),
        "simulation.self_s": sum(tracer.total_self(name, root) for name in ENGINE_SPANS),
    }


def index_probe(tracer, workers: int, rounds: int) -> dict:
    """``OrderedKeyIndex`` alone, on ScatterReduce rounds' key shape.

    Per round: W*(W-1) adds in put order, one ``count_range`` and one
    ``list_range`` per reducer prefix, then W*(W-1) removes.
    """
    index = OrderedKeyIndex()
    ranks = [f"{rank:05d}" for rank in range(workers)]
    ops = 0
    with tracer.span("storage.index_probe") as span:
        for r in range(rounds):
            base = f"sr/{r:08d}/"
            keys = [f"{base}for_{dst}/from_{src}"
                    for src in ranks for dst in ranks if src != dst]
            for key in keys:
                index.add(key)
            for dst in ranks:
                lo = f"{base}for_{dst}/"
                hi = f"{base}for_{dst}0"  # '0' is the successor of '/'
                index.count_range(lo, hi)
                index.list_range(lo, hi)
            for key in keys:
                index.remove(key)
            ops += 2 * len(keys) + 2 * workers
    return {
        "storage.index_ops": ops,
        "storage.index_us_per_op": span.duration / ops * 1e6,
    }


# ---------------------------------------------------------------------------
# Scales
# ---------------------------------------------------------------------------
WORKLOADS = {
    cls.name: cls
    for cls in (TrainExact, ScatterW128, AllreduceW1024, SweepReplay,
                ServicePanel, ServingTraffic)
}

_SYSTEMS_AXES = dict(
    workers=(8, 16),
    channel=("s3", "redis", "memcached"),
    pattern=("allreduce", "scatterreduce"),
    poll_interval_s=(0.05, 0.1, 0.2, 0.4),
    lambda_memory_gb=(2, 3),
    straggler_jitter=(0, 0.1, 0.2),
)
_SMALL_AXES = dict(
    workers=(8, 16),
    channel=("s3", "redis"),
    pattern=("allreduce", "scatterreduce"),
    poll_interval_s=(0.05, 0.2),
)
# One ADMM round is 10 scans whatever the data size; a full-batch scan
# makes the two recordings cheap, so a small grid is not two recordings
# and nothing else.
_SMALL_SWEEP_BASE = dict(batch_size=1_000_000)

SCALES = {
    "full": {
        "train_exact": {"trainings": [
            ("lr", "higgs", dict(max_epochs=40)),
            ("lr", "rcv1", dict(max_epochs=10)),
            ("mobilenet", "cifar10", dict(workers=4, max_epochs=2)),
        ]},
        "scatter_w128": dict(workers=128, pattern="scatterreduce", max_epochs=0.08),
        "allreduce_w1024": dict(workers=1024, pattern="allreduce", max_epochs=4.0),
        "sweep_replay": {"axes": _SYSTEMS_AXES},
        "service_panel": dict(jobs=fig_service.JOBS, max_epochs=None),
        "serving_traffic": dict(requests=50_000),
        "index_probe": dict(workers=128, rounds=13),
    },
    "gate": {
        "train_exact": {"trainings": [
            ("lr", "higgs", dict(max_epochs=10, batch_size=100_000, data_scale=200,
                                 loss_threshold=None)),
            ("lr", "rcv1", dict(max_epochs=10, batch_size=80_000, data_scale=80,
                                loss_threshold=None)),
            ("mobilenet", "cifar10", dict(workers=4, max_epochs=0.5, data_scale=80,
                                          loss_threshold=None)),
        ]},
        # 5 rounds: the first is unbatched (cold starts stagger the workers),
        # so fewer would not be the same-instant-batching regime.
        "scatter_w128": dict(workers=128, pattern="scatterreduce", max_epochs=0.031),
        "allreduce_w1024": dict(workers=1024, pattern="allreduce", max_epochs=0.25),
        "sweep_replay": {
            "axes": dict(_SMALL_AXES, straggler_jitter=(0, 0.2)),
            "base": _SMALL_SWEEP_BASE,
        },
        "service_panel": dict(jobs=3, max_epochs=1.0),
        "serving_traffic": dict(requests=4_000),
        "index_probe": dict(workers=128, rounds=2),
    },
    "smoke": {
        "train_exact": {"trainings": [
            ("lr", "higgs", dict(max_epochs=10, batch_size=1_000_000, data_scale=1000,
                                 workers=4, loss_threshold=None)),
            ("lr", "rcv1", dict(max_epochs=10, batch_size=200_000, data_scale=200,
                                workers=2, loss_threshold=None)),
            ("mobilenet", "cifar10", dict(workers=2, max_epochs=0.05, data_scale=200,
                                          loss_threshold=None)),
        ]},
        "scatter_w128": dict(workers=16, pattern="scatterreduce", max_epochs=0.004),
        "allreduce_w1024": dict(workers=64, pattern="allreduce", max_epochs=0.05),
        "sweep_replay": {"axes": dict(_SMALL_AXES, workers=(4, 8)),
                         "base": _SMALL_SWEEP_BASE},
        "service_panel": dict(jobs=2, max_epochs=0.05),
        "serving_traffic": dict(requests=1_000),
        "index_probe": dict(workers=16, rounds=5),
    },
}


def make(name: str, scale: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](SCALES[scale][name], seed, workdir)
