"""Training configuration: the paper's four-dimensional design space.

A :class:`TrainingConfig` pins down (1) the distributed optimization
algorithm, (2) the communication channel, (3) the communication
pattern, and (4) the synchronization protocol — plus the workload
(model x dataset), the platform (FaaS / IaaS / hybrid) and the system
variant being emulated (LambdaML, distributed PyTorch, Angel,
HybridPS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache

from repro.config import DEFAULT_SEED
from repro.data.datasets import get_spec
from repro.errors import ConfigurationError
from repro.faas.limits import LambdaLimits
from repro.iaas.vm import INSTANCES
from repro.models.zoo import get_model_info
from repro.storage.services import ELASTICACHE_NODES
from repro.utils.hashing import fingerprint_hash, init_fingerprint

SYSTEMS = ("lambdaml", "pytorch", "angel", "hybridps")
CHANNELS = ("s3", "memcached", "redis", "dynamodb")
ALGORITHMS = ("ga_sgd", "ma_sgd", "admm", "em")
PLATFORM_OF_SYSTEM = {
    "lambdaml": "faas",
    "pytorch": "iaas",
    "angel": "iaas",
    "hybridps": "hybrid",
}

# Angel's Hadoop/Yarn stack: slower start-up, HDFS loading, and a less
# efficient matrix library (factors fitted to Figure 10: 457 s start-up
# vs 132 s, 35 s loading vs 9 s, 125 s compute vs 80 s at W=10).
ANGEL_STARTUP_EXTRA_S = 325.0
ANGEL_LOAD_FACTOR = 3.9
ANGEL_COMPUTE_FACTOR = 1.56

# The convergence-relevant subset of the config: every field that can
# change a BSP loss trajectory, and nothing that cannot. Two configs
# sharing a statistical fingerprint run *bit-identical* statistical
# decisions — same per-round payload sizes, same per-epoch losses, same
# stop round — no matter how their systems axes (channel, pattern,
# instance, prices, poll interval, Lambda sizing...) differ. The replay
# substrate leans on this to record convergence once per fingerprint
# and re-emit it across a whole systems grid. Field by field:
#
#   model, dataset        the objective and the data distribution
#   algorithm             GA-SGD / MA-SGD / ADMM / EM update rules
#   workers               shard count and reduction width
#   batch_size, batch_scope   the logical minibatch (global_batch)
#   min_local_batch       statistical floor of the physical batch
#   lr, l2, k             step size / regulariser / cluster count
#   admm_rho, admm_scans  ADMM penalty and scans-per-round
#   ma_sync_epochs        MA-SGD local epochs between averages
#   loss_threshold, max_epochs   the stopping rule
#   partition_mode, data_scale, seed   what data each worker holds and
#                         every RNG draw (init, shuffles, sampling)
#   protocol              BSP vs ASP round structure
#
# Deliberately absent: system, channel, cache_node, channel_prestarted,
# pattern, poll_interval_s, instance, lambda_memory_gb,
# lambda_lifetime_s, ps_instance, rpc, straggler_jitter — all of which
# move simulated clocks and dollars but not a single merged float
# (the patterns and the IaaS collective move byte counts; BSP floats are
# folded once, in the lockstep pass: repro.substrate.lockstep). The fault axes
# (crash_rate, mttf_s, storage_error_rate, storage_retry_limit,
# storage_retry_base_s, cold_start_jitter, checkpoint_interval) are
# likewise absent: BSP crash recovery replays the identical
# statistical stream from the last checkpoint (however sparsely those
# checkpoints are spaced) and storage retries only stretch operations,
# so a whole fault grid shares one statistical fingerprint — and one
# recorded trace (pinned by tests/test_fault_injection.py's golden
# invariance tests).
STAT_FIELDS = (
    "model",
    "dataset",
    "algorithm",
    "workers",
    "batch_size",
    "batch_scope",
    "min_local_batch",
    "lr",
    "l2",
    "k",
    "admm_rho",
    "admm_scans",
    "ma_sync_epochs",
    "loss_threshold",
    "max_epochs",
    "partition_mode",
    "data_scale",
    "seed",
    "protocol",
)


def _cli(help: str, choices: tuple[str, ...] | None = None) -> dict:
    """Field metadata consumed by the derived ``repro.cli train`` flags.

    Every init field gets exactly one mechanically generated flag
    (``--field-name``) whose type and default come from the dataclass
    itself — this metadata only adds the help text and, where the value
    set is closed, the argparse choices. The parity test in
    tests/test_cli.py pins the field <-> flag bijection.
    """
    meta: dict = {"help": help}
    if choices is not None:
        meta["choices"] = choices
    return meta


@cache
def _closed_fields(cls: type, skip: tuple[str, ...]) -> tuple[tuple[str, tuple], ...]:
    return tuple(
        (f.name, f.metadata["choices"])
        for f in fields(cls)
        if "choices" in f.metadata and f.name not in skip
    )


def check_choices(config, skip: tuple[str, ...] = ()) -> None:
    """Reject any closed-set field of a config dataclass outside its set.

    The set is the ``choices`` of the field's ``_cli`` metadata — the
    same tuple argparse enforces on the flag — so a config built from a
    dict (a sweep grid, a trace file's per-job overrides) is refused
    where it is built, as the CLI would refuse it. The per-class table
    is built once; ``skip`` names fields another owner validates.
    """
    for name, choices in _closed_fields(type(config), skip):
        value = getattr(config, name)
        if value not in choices:
            raise ConfigurationError(
                f"unknown {name} {value!r}; expected one of {choices}"
            )


@dataclass
class TrainingConfig:
    """One end-to-end training run."""

    model: str = field(
        metadata=_cli("model to train", ("lr", "svm", "kmeans", "mobilenet", "resnet50"))
    )
    dataset: str = field(
        metadata=_cli("dataset", ("higgs", "rcv1", "cifar10", "yfcc100m", "criteo"))
    )
    # MA-SGD is the only algorithm valid on every convex and deep model,
    # hence the default; EM is kmeans-only, ADMM convex-only.
    algorithm: str = field(
        default="ma_sgd",
        metadata=_cli("distributed optimization algorithm", ALGORITHMS),
    )
    system: str = field(
        default="lambdaml",
        metadata=_cli("system being emulated", SYSTEMS),
    )
    workers: int = field(default=10, metadata=_cli("worker count"))

    # Communication channel / pattern / protocol (FaaS dimensions).
    channel: str = field(
        default="s3",
        metadata=_cli("FaaS communication channel", CHANNELS),
    )
    cache_node: str = field(
        default="cache.t3.small",
        metadata=_cli("ElastiCache node type", tuple(ELASTICACHE_NODES)),
    )
    # The paper's micro-benchmarks (§4) launch ElastiCache before
    # triggering the Lambdas, excluding its ~140 s boot from the
    # measurement; the end-to-end comparisons (Table 1) include it.
    channel_prestarted: bool = field(
        default=False,
        metadata=_cli("launch the cache channel before the Lambdas (§4 protocol)"),
    )
    pattern: str = field(
        default="allreduce",
        metadata=_cli("communication pattern", ("allreduce", "scatterreduce")),
    )
    protocol: str = field(
        default="bsp", metadata=_cli("synchronization protocol", ("bsp", "asp"))
    )
    # How often workers poll the storage service for merged files in
    # the synchronous protocol (§3.2.4's "keep polling ... until the
    # name of the merged file shows up").
    poll_interval_s: float = field(
        default=0.05, metadata=_cli("storage polling interval (seconds)")
    )

    # Infrastructure knobs.
    instance: str = field(
        default="t2.medium", metadata=_cli("IaaS worker VM type", tuple(INSTANCES))
    )
    lambda_memory_gb: float = field(
        default=3.0, metadata=_cli("Lambda memory size (GB)")
    )
    # Function lifetime; AWS caps it at 900 s. Shorter values are
    # useful for exercising the Figure-5 checkpoint/re-invoke path on
    # fast workloads (fault-injection tests).
    lambda_lifetime_s: float = field(
        default=900.0, metadata=_cli("Lambda function lifetime (seconds)")
    )
    ps_instance: str = field(
        default="c5.4xlarge",
        metadata=_cli("hybrid parameter-server VM type", tuple(INSTANCES)),
    )
    rpc: str = field(
        default="grpc", metadata=_cli("hybrid PS RPC framework", ("grpc", "thrift"))
    )

    # Optimization hyper-parameters.
    batch_size: int = field(
        default=10_000, metadata=_cli("logical minibatch (see --batch-scope)")
    )
    batch_scope: str = field(
        default="global",
        metadata=_cli("minibatch scope", ("global", "per_worker")),
    )
    lr: float = field(default=0.1, metadata=_cli("learning rate"))
    k: int = field(default=10, metadata=_cli("clusters for kmeans"))
    l2: float = field(default=1e-4, metadata=_cli("L2 regularisation"))
    admm_rho: float = field(default=0.05, metadata=_cli("ADMM penalty rho"))
    admm_scans: int = field(default=10, metadata=_cli("ADMM scans per exchange"))
    ma_sync_epochs: int = field(
        default=1, metadata=_cli("MA-SGD local epochs between averages")
    )

    # Statistical floor for the physical per-worker batch (see
    # repro.data.loader.make_shards).
    min_local_batch: int = field(
        default=1, metadata=_cli("physical per-worker batch floor")
    )

    # Stopping.
    loss_threshold: float | None = field(
        default=None, metadata=_cli("stop when the loss dips below this")
    )
    max_epochs: float = field(default=60.0, metadata=_cli("epoch budget"))

    # Data handling / reproducibility.
    partition_mode: str = field(
        default="iid", metadata=_cli("data partitioning", ("iid", "label-skew"))
    )
    data_scale: int | None = field(
        default=None, metadata=_cli("dataset down-scaling divisor (default: 1)")
    )
    seed: int = field(default=DEFAULT_SEED, metadata=_cli("RNG seed"))
    straggler_jitter: float = field(
        default=0.05, metadata=_cli("relative speed spread across workers")
    )

    # Fault plane (systems axes: they move clocks and dollars, never a
    # merged float — see repro.faults). Crash faults kill worker
    # processes mid-run: FaaS workers then checkpoint every round and
    # recover; IaaS jobs restart from scratch.
    crash_rate: float = field(
        default=0.0,
        metadata=_cli("expected crashes per worker per simulated hour"),
    )
    mttf_s: float | None = field(
        default=None,
        metadata=_cli("mean time to failure per worker (overrides --crash-rate)"),
    )
    storage_error_rate: float = field(
        default=0.0,
        metadata=_cli("probability a storage put/get transiently fails"),
    )
    storage_retry_limit: int = field(
        default=5, metadata=_cli("retries before a flaky storage op gives up")
    )
    storage_retry_base_s: float = field(
        default=0.1,
        metadata=_cli("first exponential-backoff gap between retries"),
    )
    cold_start_jitter: float = field(
        default=0.0,
        metadata=_cli("relative spread of re-invocation cold starts"),
    )
    # How many round boundaries apart FaaS recovery checkpoints are
    # written under crash injection. 1 (the MLLess-style default)
    # checkpoints every round; larger intervals trade checkpoint I/O
    # for more re-executed rounds after a crash — clocks and dollars
    # move, the trajectory does not.
    checkpoint_interval: int = field(
        default=1,
        metadata=_cli("rounds between FaaS recovery checkpoints (1 = every round)"),
    )

    # Derived (filled by __post_init__).
    platform: str = field(init=False)

    def __post_init__(self) -> None:
        # model/dataset keep the zoo's and the spec table's own errors (below).
        check_choices(self, skip=("model", "dataset"))
        self.platform = PLATFORM_OF_SYSTEM[self.system]
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if not 0.0 < self.poll_interval_s < math.inf:
            raise ConfigurationError(
                f"poll_interval_s must be > 0 and finite, got {self.poll_interval_s}"
            )
        # Each test is the accepted range, so a NaN (every comparison
        # false) is refused: `x <= 0` would let it through.
        for name, rule, ok in (
            ("max_epochs", "> 0 and finite", 0.0 < self.max_epochs < math.inf),
            ("lr", "> 0 and finite", 0.0 < self.lr < math.inf),
            ("l2", ">= 0 and finite", 0.0 <= self.l2 < math.inf),
            ("admm_rho", "> 0 and finite", 0.0 < self.admm_rho < math.inf),
            ("admm_scans", ">= 1", self.admm_scans >= 1),
            ("ma_sync_epochs", ">= 1", self.ma_sync_epochs >= 1),
            ("batch_size", ">= 1", self.batch_size >= 1),
            ("min_local_batch", ">= 1", self.min_local_batch >= 1),
            ("data_scale", ">= 1", self.data_scale is None or self.data_scale >= 1),
            ("k", ">= 1", self.k >= 1),
            ("lambda_lifetime_s", "> 0", self.lambda_lifetime_s > 0),
            ("straggler_jitter", ">= 0 and finite", 0.0 <= self.straggler_jitter < math.inf),
            ("crash_rate", ">= 0 and finite", 0.0 <= self.crash_rate < math.inf),
            # A rate too small to invert would hand the fault monitor an
            # infinite mean time to failure, and the run would die late.
            ("crash_rate", "0 or have a finite 3600 / crash_rate",
             self.crash_rate == 0 or 3600.0 / self.crash_rate < math.inf),
            ("mttf_s", "> 0 and finite", self.mttf_s is None or 0 < self.mttf_s < math.inf),
            ("storage_retry_base_s", ">= 0", self.storage_retry_base_s >= 0),
            ("cold_start_jitter", ">= 0 and finite", 0.0 <= self.cold_start_jitter < math.inf),
        ):
            if not ok:
                raise ConfigurationError(
                    f"{name} must be {rule}, got {getattr(self, name)!r}"
                )
        if not 0.0 <= self.storage_error_rate < 1.0:
            raise ConfigurationError(
                f"storage_error_rate must be in [0, 1), got {self.storage_error_rate}"
            )
        if self.storage_retry_limit < 0:
            raise ConfigurationError("storage_retry_limit must be >= 0")
        if self.checkpoint_interval < 1:
            raise ConfigurationError(
                f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}"
            )
        if self.fault_mttf_s is not None and (
            self.protocol != "bsp" or self.platform not in ("faas", "iaas")
        ):
            raise ConfigurationError(
                "crash injection is defined for BSP FaaS/IaaS runs "
                f"(got {self.protocol}/{self.platform}); ASP and hybrid-PS "
                "trajectories are timing-coupled, so a crash would change "
                "the statistics instead of only the clocks"
            )
        get_spec(self.dataset)  # validates dataset name

        info = get_model_info(self.model, self.dataset, k=self.k, l2=self.l2)
        if self.algorithm == "admm" and not info.convex:
            raise ConfigurationError(
                "ADMM only optimises convex objectives; "
                f"{self.model} is not convex (paper Section 4.2)"
            )
        if info.kind == "kmeans" and self.algorithm != "em":
            raise ConfigurationError("kmeans must be trained with the EM algorithm")
        if info.kind != "kmeans" and self.algorithm == "em":
            raise ConfigurationError("EM only trains kmeans")
        if self.platform == "hybrid" and self.algorithm != "ga_sgd":
            raise ConfigurationError(
                "the hybrid parameter-server architecture trains with GA-SGD "
                "(Cirrus-style gradient pushes)"
            )
        if self.protocol == "asp" and self.system != "lambdaml":
            raise ConfigurationError("the asynchronous protocol is a FaaS design point")
        if self.protocol == "asp" and info.kind == "kmeans":
            raise ConfigurationError("asynchronous training is defined for SGD workloads")

    # -- fault plane --------------------------------------------------------
    @property
    def fault_mttf_s(self) -> float | None:
        """Effective mean time to failure per worker, or None.

        ``mttf_s`` wins when set; otherwise ``crash_rate`` (crashes per
        worker per simulated hour) is inverted. Both spellings exist so
        sweeps can put either quantity on an axis.
        """
        if self.mttf_s is not None:
            return self.mttf_s
        if self.crash_rate > 0:
            return 3600.0 / self.crash_rate
        return None

    @property
    def faults_enabled(self) -> bool:
        """Does this run need the fault plane at all?"""
        return self.fault_mttf_s is not None or self.storage_error_rate > 0

    # -- statistical identity ---------------------------------------------
    @property
    def timing_coupled(self) -> bool:
        """Does simulated *timing* feed back into the trajectory?

        ASP workers read-modify-write a shared model with no barrier,
        and hybrid-PS workers interleave gradient pushes under a lock —
        in both, the event order (hence every systems knob) shapes the
        floats. BSP's lockstep rounds are the only timing-decoupled
        regime, so only BSP traces can be replayed across systems axes.
        """
        return self.protocol == "asp" or self.platform == "hybrid"

    def stat_fingerprint(self) -> dict:
        """The convergence-relevant fields (see :data:`STAT_FIELDS`).

        For timing-coupled configs (ASP, hybrid PS) the fingerprint
        widens to *every* init field: their trajectory depends on the
        systems axes, so no two distinct configs may share one.
        """
        if self.timing_coupled:
            return config_fingerprint(self)
        return {name: getattr(self, name) for name in STAT_FIELDS}

    def stat_hash(self) -> str:
        """Content address of :meth:`stat_fingerprint` (trace file name)."""
        return fingerprint_hash(self.stat_fingerprint())

    def converged(self, loss: float) -> bool:
        """The stop test: a finite loss at or under ``loss_threshold``.

        The one predicate behind the executors (``JobContext.converged``)
        and the lockstep pass, so the two can never stop apart.
        """
        threshold = self.loss_threshold
        return threshold is not None and math.isfinite(loss) and loss <= threshold

    # -- convenience ------------------------------------------------------
    @property
    def global_batch(self) -> int:
        """Logical global minibatch (per-worker scopes multiply by w)."""
        if self.batch_scope == "per_worker":
            return self.batch_size * self.workers
        return self.batch_size

    def physical_batch(self, scale: int) -> int:
        """Global batch scaled down with the dataset (min 1 per worker)."""
        return max(self.workers, self.global_batch // scale)

    def describe(self) -> str:
        return (
            f"{self.system}:{self.model}/{self.dataset} "
            f"algo={self.algorithm} w={self.workers} "
            f"channel={self.channel} pattern={self.pattern} protocol={self.protocol}"
        )


config_fingerprint = init_fingerprint


def faas_memory_error(config: TrainingConfig) -> str | None:
    """The §5.2 Lambda OOM envelope, as a predicate.

    Returns why this config cannot fit one worker into its Lambda
    function, or ``None`` when it fits. Shared by the job context
    (which raises :class:`~repro.errors.OutOfMemoryError` at setup)
    and :func:`config_validity_error` (which lets the scenario fuzzer
    reject infeasible samples before spending a training on them).
    """
    if PLATFORM_OF_SYSTEM[config.system] not in ("faas", "hybrid"):
        return None
    spec = get_spec(config.dataset)
    info = get_model_info(config.model, config.dataset, k=config.k, l2=config.l2)
    limits = LambdaLimits(
        memory_gb=config.lambda_memory_gb, lifetime_s=config.lambda_lifetime_s
    )
    local_batch = max(1, config.global_batch // config.workers)
    needed = (
        spec.partition_bytes(config.workers)
        + 4 * info.param_bytes
        + local_batch * info.activation_bytes_per_instance
    )
    if needed > limits.memory_bytes:
        return (
            f"{config.model}/{config.dataset} with batch {config.global_batch} on "
            f"{config.workers} workers needs ~{needed / 1024**3:.2f} GiB per function, "
            f"exceeding the {limits.memory_gb:.0f} GB Lambda limit"
        )
    return None


def config_validity_error(kwargs: dict) -> str | None:
    """Why these ``TrainingConfig`` kwargs cannot run, or ``None``.

    The legal-space predicate the scenario fuzzer samples against:
    constructor validation (unknown systems, incompatible
    algorithm/model pairs, crash faults on timing-coupled platforms,
    out-of-range fault axes...) plus the pre-flight resource envelopes
    that would abort a run during setup (the Lambda memory check).
    A ``None`` return means ``train(TrainingConfig(**kwargs))`` will
    not be rejected before its first simulated event.
    """
    try:
        config = TrainingConfig(**kwargs)
    except TypeError as exc:
        return f"bad constructor kwargs: {exc}"
    except ConfigurationError as exc:
        return str(exc)
    return faas_memory_error(config)
