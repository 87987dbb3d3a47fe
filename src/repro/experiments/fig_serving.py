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
every invocation. The claim ``figV.faas_bursty_cold_tail`` states the
panel's headline, the cold-start tail Wu et al. measure for serverless
model serving (*Serverless Data Science — Are We There Yet?*).
"""

from __future__ import annotations

from repro.config import DEFAULT_SEED
from repro.sweep.grid import SweepPoint
from repro.sweep.scenario import Scenario
from repro.sweep.study import Claim, Table, study

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


def serve_pipeline(artifacts: list[dict]) -> list[dict]:
    """The registry and the platform x traffic x autoscaler panel, as rows.

    One ``part="registry"`` row per trained model, then one
    ``part="panel"`` row per serving cell. A model class whose training
    artifact is missing (an interrupted sweep) is neither registered nor
    served.
    """
    if not artifacts:
        return []
    from repro.serving import (
        ModelRegistry,
        ServingConfig,
        ServingRuntime,
        serving_metrics,
    )

    registry = ModelRegistry()
    for artifact in sorted(artifacts, key=lambda a: a["tags"]["class"]):
        registry.register_artifact(artifact["tags"]["class"], artifact)
    trained = registry.names()
    seed = int(artifacts[0]["config"]["seed"])

    def cell(model_label, platform, traffic, autoscaler) -> dict:
        entry = registry.get(model_label)
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
            "part": "panel",
            "model": model_label,
            "platform": platform,
            "traffic": traffic,
            "autoscaler": autoscaler,
            **metrics,
            "end_to_end_dollars": entry.training_cost
            + metrics["cost_per_1m_requests"],
        }

    panel = []
    if "nn" in trained:
        panel += [
            cell("nn", platform, traffic, autoscaler)
            for platform in PANEL_PLATFORMS
            for traffic in PANEL_TRAFFIC
            for autoscaler in PANEL_AUTOSCALERS
        ]
    # One contrast cell: the tiny model on the FaaS sweet spot shows
    # the platform axes collapsing when the model is 224 bytes.
    if "small" in trained:
        panel.append(cell("small", "faas", "poisson", "concurrency"))
    return [{"part": "registry", **entry.as_dict()} for entry in registry.entries()] + panel


def _faas_bursty_cold_tail(rows: list[dict]) -> str | None:
    """Under bursty traffic FaaS cold starts put the p99.9 an order of
    magnitude above an always-on IaaS fleet's."""
    bursty = {
        (r["platform"], r["autoscaler"]): r for r in rows
        if r["part"] == "panel" and r["model"] == "nn" and r["traffic"] == "bursty"
    }
    faas, iaas = bursty.get(("faas", "concurrency")), bursty.get(("iaas", "fixed"))
    if faas is None or iaas is None:
        return "no bursty nn cells for FaaS/concurrency and IaaS/fixed"
    if faas["cold_start_fraction"] > 0 and faas["p999_latency_s"] > 10 * iaas["p999_latency_s"]:
        return None
    return (f"bursty p99.9: FaaS {faas['p999_latency_s'] * 1e3:.3g} ms "
            f"({faas['cold_start_fraction']:.1%} cold) vs always-on IaaS "
            f"{iaas['p999_latency_s'] * 1e3:.3g} ms")


@study("figV")
class ServingPipelineStudy:
    """serving extension: train-then-serve pipeline over platform x traffic x autoscaler"""

    @staticmethod
    def points(ctx):
        return sweep_points(max_epochs=ctx.max_epochs, seed=ctx.seed)

    aggregate = staticmethod(serve_pipeline)
    report = (
        Table("figV — model registry (training leg)", (
            ("model", "name"),
            ("workload", lambda r: f"{r['model']}/{r['dataset']}"),
            ("size (MB)", lambda r: r["param_bytes"] / (1024 * 1024)),
            ("load (s)", "load_seconds"),
            ("quality", "quality"),
            ("train $", "training_cost"),
            ("train (s)", "training_s"),
        ), where=(("part", "registry"),)),
        Table(f"figV — serving panel ({SERVE_REQUESTS} requests @ {SERVE_RATE_RPS:g} r/s; "
              "end-to-end = train $ + serve $/1M req)", (
            ("model", "model"),
            ("platform", "platform"),
            ("traffic", "traffic"),
            ("autoscaler", "autoscaler"),
            ("p50 (ms)", lambda r: r["p50_latency_s"] * 1e3),
            ("p99.9 (ms)", lambda r: r["p999_latency_s"] * 1e3),
            ("cold %", lambda r: r["cold_start_fraction"] * 100.0),
            ("util", "utilization"),
            ("$/1M req", "cost_per_1m_requests"),
            ("end-to-end $", "end_to_end_dollars"),
        ), where=(("part", "panel"),)),
    )
    claims = (
        Claim("figV.faas_bursty_cold_tail", "figV; Wu et al. 2021, serverless model serving",
              _faas_bursty_cold_tail),
    )
