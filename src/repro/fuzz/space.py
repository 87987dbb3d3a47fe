"""The scenario space: seeded sampling of valid TrainingConfig kwargs.

Property-based fuzzing needs two things from its input generator:

* **Content-addressed scenarios.** There is no RNG object anywhere.
  Every decision is a pure function of ``sha256(f"{seed}:{stream}:0")``
  via :func:`repro.faults.unit_draw`, so scenario ``"0:137"`` is the
  same dict of config kwargs on every host, every Python, every run —
  a failure report containing only the scenario id is a full repro.
* **A high valid-sample rate.** The legal config space is ragged
  (EM is kmeans-only, ADMM convex-only, ASP is a FaaS design point,
  crash faults are BSP FaaS/IaaS-only, Lambda memory bounds W x
  dataset...). Sampling axes independently and rejecting would waste
  most draws, so the generator *conditions* each axis on the ones
  already drawn and keeps :func:`repro.core.config
  .config_validity_error` only as the backstop: any sample it still
  rejects is redrawn on a fresh attempt stream (the attempt number is
  part of every stream name, so retries never replay the rejected
  draws).

Value ladders are deliberately small and tuned for wall-clock speed
(scaled-down datasets, 1-2 epoch caps): the point of a fuzz scenario
is to cross systems x statistics x fault axes, not to converge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import config_validity_error
from repro.errors import FuzzError
from repro.faults import unit_draw

# Redraw budget per scenario index. Constructive conditioning keeps the
# expected number of attempts close to 1; the cap only guards against a
# future axis making some corner of the space accidentally empty.
MAX_ATTEMPTS = 32

# Speed-tuned dataset down-scaling ladders (divisors). higgs is 11M
# rows x 28 dense features, rcv1 697k x 47k sparse: both ladders land
# a single scenario training in well under a second of wall clock.
_DATA_SCALES = {"higgs": (200, 500), "rcv1": (40, 80)}

# The training seeds a scenario samples from.
SEED_LADDER = (3, 7, 11, 20210620)


def _pick(u: float, options):
    """Map one unit draw onto a finite ladder (uniform over options)."""
    return options[min(int(u * len(options)), len(options) - 1)]


@dataclass(frozen=True)
class Scenario:
    """One sampled point of the TrainingConfig x FaultPlan space.

    ``scenario_id`` alone reproduces it: ``ScenarioSpace(seed)
    .scenario(index)`` re-derives byte-identical ``config_kwargs``.
    """

    seed: int
    index: int
    attempt: int  # which redraw produced the valid sample (usually 0)
    config_kwargs: dict = field(default_factory=dict)

    @property
    def scenario_id(self) -> str:
        return f"{self.seed}:{self.index}"


class ScenarioSpace:
    """Seeded, deterministic sampler over valid training scenarios."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    # ------------------------------------------------------------------
    def scenario(self, index: int) -> Scenario:
        """The ``index``-th scenario of this seed (rejection-sampled)."""
        for attempt in range(MAX_ATTEMPTS):
            kwargs = self._draw(index, attempt)
            if config_validity_error(kwargs) is None:
                return Scenario(
                    seed=self.seed, index=index, attempt=attempt,
                    config_kwargs=kwargs,
                )
        raise FuzzError(
            f"scenario {self.seed}:{index}: no valid sample in "
            f"{MAX_ATTEMPTS} attempts (the conditioned sampler should "
            "almost never reject; an axis ladder is probably broken)"
        )

    def scenarios(self, budget: int):
        """The first ``budget`` scenarios, in index order."""
        return [self.scenario(index) for index in range(budget)]

    @classmethod
    def from_id(cls, scenario_id: str) -> Scenario:
        """Re-derive a scenario from its ``"seed:index"`` content address."""
        try:
            seed_text, index_text = scenario_id.split(":")
            seed, index = int(seed_text), int(index_text)
        except ValueError as exc:
            raise FuzzError(
                f"bad scenario id {scenario_id!r}; expected 'seed:index'"
            ) from exc
        return cls(seed).scenario(index)

    # ------------------------------------------------------------------
    def _draw(self, index: int, attempt: int) -> dict:
        """One conditioned sample of config kwargs (pure; may be invalid)."""

        def u(axis: str) -> float:
            return unit_draw(self.seed, f"scenario/{index}/{attempt}/{axis}", 0)

        kwargs: dict = {}

        # -- workload: model -> dataset -> algorithm -------------------
        model = _pick(u("model"), ("lr", "lr", "svm", "kmeans"))
        if model == "kmeans":
            dataset, algorithm = "higgs", "em"
            kwargs["k"] = _pick(u("k"), (3, 5, 10))
        else:
            dataset = _pick(u("dataset"), ("higgs", "higgs", "rcv1"))
            algorithm = _pick(u("algorithm"), ("ma_sgd", "ma_sgd", "ga_sgd", "admm"))
        kwargs.update(model=model, dataset=dataset, algorithm=algorithm)

        # -- platform / system / protocol ------------------------------
        systems = ["lambdaml", "lambdaml", "pytorch"]
        if algorithm == "ga_sgd":
            systems.append("hybridps")  # the PS architecture is GA-only
        system = _pick(u("system"), tuple(systems))
        kwargs["system"] = system
        protocol = "bsp"
        if system == "lambdaml" and model != "kmeans" and u("protocol") < 0.15:
            protocol = "asp"  # SIREN-style S-ASP: FaaS SGD only
            kwargs["protocol"] = protocol

        # -- shape: workers / batch / scale ----------------------------
        if system == "pytorch":
            workers = _pick(u("workers"), (2, 3, 4, 6, 8))
        else:
            # One higgs partition only fits a 3 GB Lambda from W>=3;
            # start at 4 so the validity backstop almost never fires.
            workers = _pick(u("workers"), (4, 6, 8))
        kwargs["workers"] = workers
        kwargs["batch_size"] = _pick(u("batch_size"), (2048, 4096, 10000))
        if u("batch_scope") < 0.25:
            kwargs["batch_scope"] = "per_worker"
        kwargs["data_scale"] = _pick(u("data_scale"), _DATA_SCALES[dataset])
        # GA-SGD synchronises every iteration (long simulated runs) and
        # ADMM burns admm_scans shard scans per round (heavy numpy):
        # one epoch crosses all the systems axes just as well.
        if algorithm in ("ga_sgd", "admm"):
            kwargs["max_epochs"] = 1
        else:
            kwargs["max_epochs"] = _pick(u("max_epochs"), (1, 2, 2))

        # -- statistics: lr / seed / MA cadence ------------------------
        # SVM's hinge subgradients diverge fast on unnormalised HIGGS at
        # lr 0.1; divergence (NaN losses) is a legitimate statistical
        # outcome the invariants tolerate, but a space full of it
        # exercises nothing else.
        kwargs["lr"] = _pick(
            u("lr"), (0.01, 0.05) if model == "svm" else (0.01, 0.05, 0.1)
        )
        kwargs["seed"] = _pick(u("seed"), SEED_LADDER)
        if algorithm == "ma_sgd" and u("ma_sync_epochs") < 0.3:
            kwargs["ma_sync_epochs"] = 2

        # -- systems axes: channel / pattern / stragglers --------------
        if system == "lambdaml":
            # dynamodb is excluded: large linear models brush its 400 KB
            # item limit, which is a modelled *feature*, not a bug.
            kwargs["channel"] = _pick(u("channel"), ("s3", "memcached", "redis"))
            kwargs["pattern"] = _pick(u("pattern"), ("allreduce", "scatterreduce"))
        kwargs["straggler_jitter"] = _pick(u("straggler_jitter"), (0.0, 0.05, 0.2))

        # -- fault plane ----------------------------------------------
        # Crash faults are defined for BSP FaaS/IaaS only; storage
        # errors compose anywhere. ADMM is excluded from crash
        # injection: its rounds (admm_scans full shard scans) are long
        # against any MTTF that still produces crashes, which livelocks
        # recovery into re-executing the same round — the paper's own
        # unsupported long-iteration regime, modelled separately by the
        # FunctionTimeoutError path. Retry limits are conditioned on
        # the error rate so exhaustion stays a deliberately-exercised
        # path (see tests) rather than random campaign noise: at these
        # (rate, limit) pairs P(one op exhausts) <= ~1e-8.
        crashes = (
            protocol == "bsp"
            and system in ("lambdaml", "pytorch")
            and algorithm != "admm"
        )
        if crashes and u("crash") < 0.55:
            if system == "lambdaml":
                # GA-SGD's per-iteration sync stretches simulated time
                # ~10x, so its hazard ladder stretches with it — the
                # crash *count* per run stays comparable.
                mttfs = (300.0, 600.0) if algorithm == "ga_sgd" else (90.0, 180.0, 300.0)
                kwargs["mttf_s"] = _pick(u("mttf"), mttfs)
                kwargs["checkpoint_interval"] = _pick(u("checkpoint_interval"), (1, 2, 4))
                if u("cold_start_jitter") < 0.5:
                    kwargs["cold_start_jitter"] = 0.3
            else:
                # IaaS recovery is restart-from-scratch: MTTF must sit
                # well above the longest simulated job at these scales
                # (~800 s) or restarts chain indefinitely.
                kwargs["mttf_s"] = _pick(u("mttf"), (1800.0, 3600.0))
        if u("storage_errors") < 0.4:
            rate = _pick(u("storage_error_rate"), (0.01, 0.05))
            kwargs["storage_error_rate"] = rate
            kwargs["storage_retry_limit"] = _pick(
                u("storage_retry_limit"), (3, 5) if rate == 0.01 else (5, 8)
            )
        return kwargs
