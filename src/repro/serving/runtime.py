"""The replica pool: seeded request traffic on the deterministic engine.

One :class:`ServingRuntime` simulates one serving run: a master process
replays the config's content-addressed arrival trace, a pool of replica
instances serves requests, and the configured autoscaling policy grows
and shrinks the pool from seeded state only. Everything runs on
:class:`repro.simulation.engine.Engine`, so the whole run — every
assignment, cold start, expiry and billing event — is a pure function
of the config and the served model.

Platform economics:

* **FaaS** — a cold replica pays a seeded cold start
  (``faas_startup_seconds(1)`` jittered via the ``serving/cold`` draw
  stream) plus the model download from S3; warm replicas serve from
  memory. Idle replicas are reclaimed through the existing
  :class:`~repro.faas.runtime.FunctionLifetime` machinery: each served
  request renews the keep-warm lease (``reincarnate``), and a reaper
  daemon retires the instance once ``remaining()`` hits zero. Billing
  is per use (GB-seconds + invocations) — idle time is free.
* **IaaS / GPU-IaaS** — always-on VMs: the base fleet is pre-booted
  (no cold-start tail), scale-ups pay the VM boot time, and every
  replica bills instance-hours from provisioning to retirement whether
  or not requests arrive. GPU platforms divide the forward-pass time
  by the model's calibrated GPU ratio (see
  :func:`repro.pricing.platforms.inference_speedup`).

Pool accounting invariant: the ``live`` / ``busy`` counters and the idle
index change only in :meth:`ServingRuntime._transition`, the one place a
replica's ``state`` is assigned, so reading the pool's aggregate state
is O(1) and a transition is O(log idle) to place plus a shift of at
most ``max_replicas`` index slots. ``_replicas`` is append-only with
``id == index`` and is walked once, in ``_settle``, in id order (the
float order ``alive_s``, ``busy_s`` and the ``bill_vm`` sequence add in).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.faas.limits import MAX_LIFETIME_S, LambdaLimits, lambda_speed_factor
from repro.faas.runtime import FunctionLifetime, faas_startup_seconds
from repro.faults.plan import unit_draw
from repro.models.zoo import get_model_info
from repro.pricing import CostMeter, DEFAULT_CATALOG, get_platform, inference_speedup
from repro.serving.autoscale import PoolState, make_autoscaler
from repro.serving.config import ServingConfig
from repro.serving.registry import ServedModel
from repro.serving.workload import arrivals_for
from repro.simulation.commands import Compute, Sleep
from repro.simulation.engine import Engine

#: Draw stream for per-provision cold-start jitter.
COLD_STREAM = "serving/cold"


def request_service_seconds(config: ServingConfig, entry: ServedModel) -> float:
    """Per-request service time for the model on the config's platform.

    One forward pass (the model's eval fraction of a training step plus
    the per-step dispatch overhead) divided by the platform's speed-up,
    plus the platform-independent routing overhead.
    """
    compute = get_model_info(entry.model, entry.dataset).compute
    forward = compute.per_iteration_s + compute.eval_fraction * compute.per_instance_s
    platform = get_platform(config.platform, config.instance, config.gpu_instance)
    if platform.kind == "faas":
        speedup = lambda_speed_factor(config.memory_gb)
    else:
        speedup = inference_speedup(platform, compute)
    return forward / speedup + config.request_overhead_s


@dataclass
class _Request:
    index: int
    arrival_s: float


class _Replica:
    """One pool instance and its whole lifecycle bookkeeping."""

    def __init__(self, replica_id: int, provisioned_s: float, cold: bool) -> None:
        self.id = replica_id
        self.provisioned_s = provisioned_s
        self.cold_provisioned = cold
        # starting | idle | busy | retired; "new" is only what `_provision`'s
        # first `_transition` counts into `live`, never seen outside it.
        self.state = "new"
        self.ready_s: float | None = None
        self.retired_s: float | None = None
        self.idle_since = 0.0
        self.idle_token = 0
        self.served = 0
        self.busy_s = 0.0
        self.lifetime: FunctionLifetime | None = None  # FaaS keep-warm lease


class ServingRuntime:
    """One deterministic serving run over one registered model."""

    def __init__(
        self,
        config: ServingConfig,
        entry: ServedModel,
        catalog=DEFAULT_CATALOG,
    ) -> None:
        self.config = config
        self.entry = entry
        self.platform = get_platform(
            config.platform, config.instance, config.gpu_instance
        )
        self.meter = CostMeter(catalog)
        # A replica's model download: one S3 GET, billed like a store's.
        self._model_get = self.meter.s3_request_prices()["get"]
        self.serve_s = request_service_seconds(config, entry)
        self.arrivals = arrivals_for(config)
        self.engine = Engine()
        self._queue: deque[_Request] = deque()
        self._replicas: list[_Replica] = []
        self._live_count = 0  # replicas starting + idle + busy
        self._busy_count = 0
        # Idle replicas as (idle_since, id, replica), ascending: the
        # longest-idle first, the most-recently-idle last.
        self._idle_index: list[tuple[float, int, _Replica]] = []
        self._records: dict[int, dict] = {}
        self._autoscaler = make_autoscaler(config)
        self._provisions = 0
        self._cold_starts = 0
        self._peak_live = 0
        # FaaS keep-warm window, expressed through the Lambda limits
        # envelope (a keep-warm lease can't outlive the function wall).
        self._warm_limits = LambdaLimits(
            memory_gb=config.memory_gb,
            lifetime_s=min(config.idle_expiry_s, MAX_LIFETIME_S),
        )

    # -- pool state ----------------------------------------------------
    def _transition(self, replica: _Replica, state: str) -> None:
        """Move `replica` to `state`, keeping the counters and idle index."""
        now = self.engine.now
        old = replica.state
        if old == "idle":
            index = self._idle_index
            del index[bisect_left(index, (replica.idle_since, replica.id))]
        elif old == "busy":
            self._busy_count -= 1
        elif old == "new":
            self._live_count += 1
        replica.state = state
        if state == "idle":
            replica.idle_since = now
            # `now` never decreases, so this lands at the tail, or just
            # short of it among replicas idled at the same instant.
            insort(self._idle_index, (now, replica.id, replica))
        elif state == "busy":
            self._busy_count += 1
        elif state == "retired":
            replica.retired_s = now
            self._live_count -= 1

    def _state(self) -> PoolState:
        # queued, in_flight, live, idle
        return PoolState(
            len(self._queue), self._busy_count, self._live_count, len(self._idle_index)
        )

    # -- provisioning --------------------------------------------------
    def _provision(self, cold: bool) -> None:
        now = self.engine.now
        replica = _Replica(len(self._replicas), now, cold)
        self._replicas.append(replica)
        self._transition(replica, "starting")
        self._provisions += 1
        if not cold:
            # Pre-booted base fleet of an always-on platform: warm from
            # the first instant, boot billed like any alive time.
            self._make_ready(replica)
            return
        self._cold_starts += 1
        if self.platform.kind == "faas":
            jitter = unit_draw(self.config.seed, COLD_STREAM, self._provisions - 1)
            startup = faas_startup_seconds(1) * (1.0 + self.config.cold_jitter * jitter)
            delay = startup + self.entry.load_seconds
            # Lambda bills the init duration (cold start + model pull).
            self.meter.bill_lambda(self.config.memory_gb, delay)
        else:
            delay = self.platform.boot_s + self.entry.load_seconds
        self.meter.bill_request(self._model_get)
        self.engine.spawn(
            self._starter(replica, delay), f"replica-{replica.id}-start"
        )

    def _starter(self, replica: _Replica, delay: float):
        yield Sleep(delay, "startup")
        self._make_ready(replica)
        self._pump()

    def _make_ready(self, replica: _Replica) -> None:
        now = self.engine.now
        self._transition(replica, "idle")
        replica.ready_s = now
        if self.platform.kind == "faas":
            replica.lifetime = FunctionLifetime(self._warm_limits, started_at=now)
            self._spawn_reaper(replica)

    def _spawn_reaper(self, replica: _Replica) -> None:
        token = replica.idle_token
        remaining = replica.lifetime.remaining(self.engine.now)

        def reaper():
            yield Sleep(remaining, "idle")
            if (
                replica.state == "idle"
                and replica.idle_token == token
                and replica.lifetime.remaining(self.engine.now) <= 0
            ):
                self._transition(replica, "retired")

        self.engine.spawn(reaper(), f"replica-{replica.id}-reaper", daemon=True)

    # -- scaling + assignment ------------------------------------------
    def _reconcile(self) -> None:
        now = self.engine.now
        desired = self._autoscaler.desired(self._state(), now)
        while self._live_count < desired:
            self._provision(cold=True)
        # Scale down by releasing the longest-idle replicas; busy ones
        # finish their request first and are reconsidered on completion.
        # FaaS pools never scale down explicitly: idle warm containers
        # are free, so they are left to the keep-warm expiry instead of
        # being retired into future cold starts.
        if self.platform.kind == "iaas" and self._live_count > desired:
            for _, _, replica in self._idle_index[: self._live_count - desired]:
                self._transition(replica, "retired")
        if self._live_count > self._peak_live:
            self._peak_live = self._live_count

    def _pump(self) -> None:
        queue, idle = self._queue, self._idle_index
        while queue and idle:
            # Most-recently-idle first: keeps the warm set small so the
            # rest of the pool can expire (FaaS) or scale down (IaaS).
            self._assign(idle[-1][2], queue.popleft())
        self._reconcile()

    def _assign(self, replica: _Replica, request: _Request) -> None:
        now = self.engine.now
        self._transition(replica, "busy")
        replica.idle_token += 1
        cold = replica.cold_provisioned and replica.served == 0
        self.engine.spawn(
            self._server(replica, request, start_s=now, cold=cold),
            f"request-{request.index}",
        )

    def _server(self, replica: _Replica, request: _Request, start_s: float, cold: bool):
        yield Compute(self.serve_s, "serve")
        now = self.engine.now
        replica.served += 1
        replica.busy_s += self.serve_s
        if self.platform.kind == "faas":
            self.meter.bill_lambda(self.config.memory_gb, self.serve_s, invocations=1)
        self._records[request.index] = {
            "request": request.index,
            "arrival_s": request.arrival_s,
            "start_s": start_s,
            "completion_s": now,
            "latency_s": now - request.arrival_s,
            "wait_s": start_s - request.arrival_s,
            "serve_s": self.serve_s,
            "replica": replica.id,
            "cold": cold,
        }
        if replica.state == "busy":  # not retired mid-flight
            self._transition(replica, "idle")
            replica.idle_token += 1
            if replica.lifetime is not None:
                # The invocation renews the keep-warm lease.
                replica.lifetime.reincarnate(now)
                self._spawn_reaper(replica)
        self._pump()

    # -- the run -------------------------------------------------------
    def _master(self):
        self._reconcile()  # the autoscaler's t=0 fleet (cold on FaaS)
        last = 0.0
        for index, arrival in enumerate(self.arrivals):
            if arrival > last:
                yield Sleep(arrival - last, "idle")
                last = arrival
            self._queue.append(_Request(index, arrival))
            self._pump()

    def run(self) -> tuple[list[dict], dict]:
        """Simulate the whole trace; (per-request records, pool summary)."""
        if self.platform.kind == "iaas":
            # Always-on base fleet: booted before the traffic window.
            for _ in range(self.config.min_replicas):
                self._provision(cold=False)
            self._peak_live = self._live_count
        self.engine.spawn(self._master(), "serving-master")
        self.engine.run()
        if len(self._records) != len(self.arrivals):
            raise SimulationError(
                f"served {len(self._records)} of {len(self.arrivals)} requests"
            )
        records = [self._records[i] for i in range(len(self.arrivals))]
        return records, self._settle(records)

    def _settle(self, records: list[dict]) -> dict:
        makespan = max(r["completion_s"] for r in records)
        alive_s = 0.0
        busy_s = 0.0
        for replica in self._replicas:
            end = replica.retired_s if replica.retired_s is not None else makespan
            alive_s += max(0.0, end - replica.provisioned_s)
            busy_s += replica.busy_s
            if self.platform.kind == "iaas":
                seconds = max(0.0, end - replica.provisioned_s)
                if seconds > 0:
                    self.meter.bill_vm(self.platform.instance, seconds)
        return {
            "platform": self.platform.name,
            "replicas_provisioned": self._provisions,
            "cold_starts": self._cold_starts,
            "peak_replicas": self._peak_live,
            "alive_s": alive_s,
            "busy_s": busy_s,
            "makespan_s": makespan,
            "serve_s": self.serve_s,
            "total_cost": self.meter.total,
            "cost_breakdown": self.meter.breakdown(),
        }
