"""figV — the train-then-serve pipeline panel.

The source paper stops once the model converges; figV asks what happens
next: the trained model is registered into the serving tier and hit
with seeded request traffic, and the experiment reports the **end-to-end
dollar cost of owning the model** — training cost plus the cost of
serving one million requests — across the axes no prior serverless-ML
paper combines: hosting platform (FaaS functions vs always-on CPU vs
GPU VMs) × traffic shape (Poisson / diurnal / bursty) × autoscaling
policy (fixed / concurrency-target / queue-depth).

The grid points are the training runs (a MobileNet/Cifar10 surrogate
and an LR/Higgs contrast, both scaled down) — ordinary content-
addressed sweep artifacts, so ``--jobs/--resume`` and serial-vs-pooled
byte-identity come from the orchestrator. ``aggregate`` then replays
the deterministic serving simulation over those artifacts: the whole
panel is a pure function of the artifacts and re-runs identically on
every invocation.
"""

from __future__ import annotations

from repro.config import DEFAULT_SEED
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import study

#: Serving panel knobs (shared by the study and the benchmark).
SERVE_REQUESTS = 400
SERVE_RATE_RPS = 20.0
SERVE_MAX_REPLICAS = 16
#: Always-on fleet sizes: CPU VMs need headroom for bursts; one GPU VM
#: serves ~27x faster, so a pair is already over-provisioned.
SERVE_MIN_REPLICAS = {"faas": 1, "iaas": 4, "gpu_iaas": 2}

PANEL_PLATFORMS = ("faas", "iaas", "gpu_iaas")
PANEL_TRAFFIC = ("poisson", "diurnal", "bursty")
PANEL_AUTOSCALERS = ("fixed", "concurrency", "queue_depth")


def class_kwargs(max_epochs: float | None = None, seed: int = DEFAULT_SEED) -> dict:
    """The two trained-model classes feeding the registry.

    Both legs are ``ServingConfig.train_kwargs()`` so the study and the
    ``repro.cli infer`` facade train byte-identical models.
    """
    from repro.serving import ServingConfig

    return {
        # The serving headliner: a 12 MB CNN whose cold model pull and
        # forward-pass cost make the platform axes bite.
        "nn": ServingConfig(
            train_epochs=max_epochs or 1.0, seed=seed
        ).train_kwargs(),
        # The contrast: a 224 B linear model — negligible load time,
        # serving cost dominated by per-request overhead.
        "small": ServingConfig(
            model="lr", dataset="higgs", data_scale=2000,
            train_epochs=max_epochs or 1.0, seed=seed,
        ).train_kwargs(),
    }


def sweep_points(
    max_epochs: float | None = None, seed: int = DEFAULT_SEED
) -> list[SweepPoint]:
    return [
        Scenario(
            kw,
            label=f"model={label} {kw['model']}/{kw['dataset']},W={kw['workers']}",
            tags={"series": "serving", "class": label},
        ).point("figV")
        for label, kw in sorted(class_kwargs(max_epochs, seed).items())
    ]


def serve_pipeline(artifacts: list[dict]) -> dict:
    """The platform x traffic x autoscaler panel over trained artifacts."""
    from repro.serving import (
        ModelRegistry,
        ServingConfig,
        ServingRuntime,
        serving_metrics,
    )

    registry = ModelRegistry()
    for artifact in sorted(artifacts, key=lambda a: a["tags"]["class"]):
        registry.register_artifact(artifact["tags"]["class"], artifact)
    nn = registry.get("nn")
    small = registry.get("small")
    seed = int(next(iter(artifacts))["config"]["seed"])

    def cell(entry, model_label, platform, traffic, autoscaler) -> dict:
        config = ServingConfig(
            model=entry.model,
            dataset=entry.dataset,
            platform=platform,
            traffic=traffic,
            autoscaler=autoscaler,
            requests=SERVE_REQUESTS,
            rate_rps=SERVE_RATE_RPS,
            min_replicas=SERVE_MIN_REPLICAS[platform],
            max_replicas=SERVE_MAX_REPLICAS,
            seed=seed,
        )
        records, pool = ServingRuntime(config, entry).run()
        metrics = serving_metrics(records, pool)
        return {
            "model": model_label,
            "platform": platform,
            "traffic": traffic,
            "autoscaler": autoscaler,
            **metrics,
            "end_to_end_dollars": entry.training_cost
            + metrics["cost_per_1m_requests"],
        }

    panel = [
        cell(nn, "nn", platform, traffic, autoscaler)
        for platform in PANEL_PLATFORMS
        for traffic in PANEL_TRAFFIC
        for autoscaler in PANEL_AUTOSCALERS
    ]
    # One contrast cell: the tiny model on the FaaS sweet spot shows
    # the platform axes collapsing when the model is 224 bytes.
    panel.append(cell(small, "small", "faas", "poisson", "concurrency"))
    return {
        "requests": SERVE_REQUESTS,
        "rate_rps": SERVE_RATE_RPS,
        "seed": seed,
        "models": [entry.as_dict() for entry in registry.entries()],
        "panel": panel,
    }


def format_report(result: dict) -> str:
    from repro.experiments.report import format_table

    models = format_table(
        "figV — model registry (training leg)",
        ["model", "workload", "size (MB)", "load (s)", "quality",
         "train $", "train (s)"],
        [
            [m["name"], f"{m['model']}/{m['dataset']}",
             m["param_bytes"] / (1024 * 1024), m["load_seconds"],
             m["quality"], m["training_cost"], m["training_s"]]
            for m in result["models"]
        ],
    )
    panel = format_table(
        f"figV — serving panel ({result['requests']} requests @ "
        f"{result['rate_rps']:g} r/s; end-to-end = train $ + serve $/1M req)",
        ["model", "platform", "traffic", "autoscaler", "p50 (ms)",
         "p99.9 (ms)", "cold %", "util", "$/1M req", "end-to-end $"],
        [
            [c["model"], c["platform"], c["traffic"], c["autoscaler"],
             c["p50_latency_s"] * 1e3, c["p999_latency_s"] * 1e3,
             c["cold_start_fraction"] * 100.0, c["utilization"],
             c["cost_per_1m_requests"], c["end_to_end_dollars"]]
            for c in result["panel"]
        ],
    )
    lines = [models, "", panel]
    bursty_faas = [
        c for c in result["panel"]
        if c["model"] == "nn" and c["platform"] == "faas"
        and c["traffic"] == "bursty" and c["autoscaler"] == "concurrency"
    ]
    bursty_iaas = [
        c for c in result["panel"]
        if c["model"] == "nn" and c["platform"] == "iaas"
        and c["traffic"] == "bursty" and c["autoscaler"] == "fixed"
    ]
    if bursty_faas and bursty_iaas:
        f, i = bursty_faas[0], bursty_iaas[0]
        lines.append(
            "bursty tail: FaaS p99.9 "
            f"{f['p999_latency_s'] * 1e3:.3g} ms (cold starts) vs always-on "
            f"IaaS {i['p999_latency_s'] * 1e3:.3g} ms; "
            f"end-to-end ${f['end_to_end_dollars']:.4g} vs "
            f"${i['end_to_end_dollars']:.4g} — the cost axis flips with "
            "utilization, the latency axis with cold starts"
        )
    return "\n".join(lines)


@study("figV")
class ServingPipelineStudy:
    """serving extension: train-then-serve pipeline over platform x traffic x autoscaler"""

    @staticmethod
    def points(ctx):
        return sweep_points(max_epochs=ctx.max_epochs, seed=ctx.seed)

    aggregate = staticmethod(serve_pipeline)
    format_report = staticmethod(format_report)
