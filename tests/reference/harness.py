"""One world, two materializations: the real engine and stores, and the reference.

A :class:`World` is plain data: stores, objects seeded before the run and
processes that each run a script of ops. :func:`simulate` builds it on
one side and runs it; the side's ``outcome`` is everything observable,
floats as ``float.hex``: every op's instant and outcome across all
processes in dispatch order, each run's escaped error, every process's
state, result, instants and time breakdown, dollars per component with
every write in order, request counters, store contents, fault counters
and retention windows, and the final clock. :func:`build_world` draws a
world from a `pick`:
hypothesis's ``draw`` (:func:`worlds`, which shrinks a failure to a
minimal world) or a seeded ``random.Random`` (:class:`SeededPick`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

import numpy as np
from hypothesis import strategies as st

from repro.comm import patterns as real_patterns
from repro.errors import DeadlockError, KeyNotFoundError, TransientStorageError
from repro.faults.plan import FaultPlan, StorageFaultPolicy
from repro.faults.retry import RetryPolicy
from repro.iaas.ps import make_parameter_server
from repro.pricing.catalog import PriceCatalog
from repro.pricing.meter import CostMeter
from repro.simulation.commands import (
    Collective, CollectiveGroup, Compute, Get, GetEach, Join, ListKeys, Put, PutEach, Sleep,
    WaitKeyCount,
)
from repro.simulation.engine import Engine
from repro.storage.services import DynamoDBStore, MemcachedStore, RedisStore, S3Store, VMDiskStore
from repro.utils.serialization import SizedPayload

from . import patterns as ref_patterns
from .engine import RefEngine
from .store import RefMeter, RefRetention, RefStore

MB = 1024 * 1024
CATALOGS = {
    "default": PriceCatalog(),
    # Prices whose sums round differently in every order.
    "awkward": PriceCatalog(s3_per_put=math.sqrt(2) / 10, s3_per_get=1 / 3,
                            dynamodb_per_write_unit=math.pi / 7,
                            dynamodb_per_read_unit=math.e / 11),
}
SERVICES = {"s3": S3Store, "dynamodb": DynamoDBStore, "redis": RedisStore,
            "memcached": MemcachedStore, "vmdisk": VMDiskStore}
KINDS = ("s3", "dynamodb", "redis", "memcached", "vmdisk", "ps")
EXCHANGES = {"allreduce": (real_patterns.allreduce, ref_patterns.allreduce),
             "scatterreduce": (real_patterns.scatter_reduce, ref_patterns.scatter_reduce)}
FAULTS = (None, (0.3, 4), (0.5, 1), (0.5, 1))  # (error rate, retry limit)
DURATIONS = (0.0, 0.01, 0.02, 0.05)
POLLS = (0.01, 0.05)
SIZES = (8, 1000, 0, 40_000, 390_000, 3 * MB)  # 390,000 B framed is over DynamoDB's limit
BASES = ("x/", "x/y/", "ar/00000000/part_", "ar/00000001/", "sr/00000001/for_00002/from_", "",
         "日/\U0010ffff")  # a prefix whose upper bound carries
LEAVES = ("0", "1", "00")
PREFIXES = ("x/", "", "x/y/", "ar/", "ar/00000000", "ar/00000001/", "sr/",
            "sr/00000001/for_00002/", "x/0", "0", "日/", "日/\U0010ffff")
OPS = ("put", "get", "put_each", "get_each", "wait_count", "wait_key", "sleep", "list",
       "compute", "put_each", "get_each", "join", "discard_prefix", "discard", "expect_readers",
       "discard_after_read", "advance")
NESTED = OPS[:9]  # what the raiser may do
STORAGE_OPS = ("put", "get", "put_each", "get_each", "wait_count", "wait_key", "list")
ZERO_TIME = ("discard", "discard_prefix", "expect_readers", "discard_after_read", "advance")
BLOCKING = ("put_each", "get_each", "wait_key", "wait_count")
PS_PARAMS = np.zeros(4)

FEATURES = set(KINDS) | set(ZERO_TIME) | {
    "Sleep", "Compute", "Join", "Collective", "Put", "Get", "PutEach", "GetEach", "ListKeys",
    "WaitKeyCount", "wait_on_a_key", "overwrite", "seed_object", "retention", "kill_mid_sequence",
    "kill_mid_wait", "daemon", "resume_after_raise",
    "join_failed", "flaky", "retry_exhaustion", "over_limit_put", "early_arrival",
    "shared_queue", "get_each_missing_at_k", "sliced",
}


@dataclass
class StoreSpec:
    kind: str
    available_at: float | None = None  # None: the service's own start-up
    fault: tuple | None = None  # (error rate, retry limit)
    retention: int | None = None  # a retention window's floor
    queue: int | None = None  # the earlier store whose queue it shares


@dataclass
class ProcSpec:
    name: str
    ops: tuple
    delay: float = 0.0
    fragile: bool = False  # an error handed to it fails it


@dataclass
class World:
    stores: list
    procs: list
    seeds: list = field(default_factory=list)  # (store, key, nbytes), before the run
    catalog: str = "default"
    group: int = 0  # the first `group` processes share a collective group
    kill: tuple | None = None  # (victim, instant): a daemon kills it once it blocks after
    slices: tuple = ()  # the real side runs until each instant first
    features: set = field(default_factory=set)


# ---------------------------------------------------------------------------
# Drawing worlds
# ---------------------------------------------------------------------------
class SeededPick:
    def __init__(self, seed) -> None:
        self.rng = random.Random(seed)

    def int(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)

    def choice(self, options):
        return options[self.rng.randrange(len(options))]


class _DrawPick:
    def __init__(self, draw) -> None:
        self.draw = draw

    def int(self, lo: int, hi: int) -> int:
        return self.draw(st.integers(lo, hi))

    def choice(self, options):
        return self.draw(st.sampled_from(options))


@st.composite
def worlds(draw) -> World:
    return build_world(_DrawPick(draw))


def _key(pick, ps: bool) -> str:
    if ps and pick.choice((False, True)):
        return pick.choice(("grad/0", "model"))
    return pick.choice(BASES) + pick.choice(LEAVES)


def _op(pick, stores, others, features, menu=OPS) -> tuple:
    kind = pick.choice(menu)
    s = pick.int(0, len(stores) - 1)
    ps = stores[s].kind == "ps"
    if kind == "put":
        return (kind, s, _key(pick, ps), pick.choice(SIZES))
    if kind in ("get", "discard"):
        return (kind, s, _key(pick, ps))
    if kind == "put_each":
        return (kind, s, tuple((_key(pick, ps), pick.choice(SIZES))
                               for _ in range(pick.int(1, 3))))
    if kind == "get_each":
        keys = [_key(pick, ps) for _ in range(pick.int(1, 3))]
        if len(keys) > 1 and pick.choice((False, True)):
            keys[pick.int(1, len(keys) - 1)] = "missing"
            features.add("get_each_missing_at_k")
        return (kind, s, tuple(keys))
    if kind == "wait_key":
        return (kind, s, _key(pick, ps), pick.choice(POLLS))
    if kind == "wait_count":
        return (kind, s, pick.choice(PREFIXES), pick.int(1, 3), pick.choice(POLLS))
    if kind in ("sleep", "compute"):
        return (kind, pick.choice(DURATIONS))
    if kind in ("list", "discard_prefix"):
        return (kind, s, pick.choice(PREFIXES))
    if kind == "join" and others:
        return (kind, pick.choice(others))
    if kind == "expect_readers":
        return (kind, s, _key(pick, ps), pick.int(1, 2))
    if kind == "discard_after_read":
        return (kind, s, tuple(_key(pick, ps) for _ in range(pick.int(1, 2))))
    if kind == "advance" and stores[s].retention is not None:
        return (kind, s, pick.int(1, 2))
    return ("sleep", 0.0)


def build_world(pick, *, kinds=None, catalog=None, fault="draw", shared=None, sliced=None,
                fragile=None, raiser=None, join=None, group=None, watch=None, kill=None,
                workers=(1, 5), ops=(1, 10), pauses=(1, 4), menu=OPS) -> World:
    """A world drawn from `pick`.

    A keyword left at its default is drawn; any other value pins what it
    names (``fault=None``: fault-free; ``join=True``: worker 0's first op
    joins the raiser). `workers`, `ops` (per worker) and
    `pauses` (slices of a sliced run) are (low, high) counts, and `menu`
    holds the ops a worker draws from.
    """
    features: set[str] = set()
    stores: list[StoreSpec] = []
    for i in range(len(kinds) if kinds else pick.int(1, 3)):
        if kinds:
            spec = StoreSpec(kinds[i])
        else:  # often a second store of the same service, which may share its queue
            spec = StoreSpec(stores[-1].kind if i and pick.choice((0, 1)) else pick.choice(KINDS))
        if spec.kind in ("redis", "memcached"):
            spec.available_at = pick.choice((0.05, None))
        spec.fault = pick.choice(FAULTS) if fault == "draw" else fault
        spec.retention = pick.choice((None, None, 0, 1, 2))
        same = [j for j, s in enumerate(stores) if s.kind == spec.kind and s.queue is None]
        if same and spec.kind != "ps" and (shared or (shared is None and pick.choice((0, 1)))):
            spec.queue = same[0]
            features.add("shared_queue")
        stores.append(spec)
    names = [f"w{i}" for i in range(pick.int(*workers))]
    raiser = pick.choice((False, True)) if raiser is None else raiser
    everyone = names + ["raiser"] * raiser
    group = min(pick.choice((0, 0, 2, 3)) if group is None else group, len(names))
    procs = []
    for i, name in enumerate(names):
        others = tuple(n for n in everyone if n != name)
        script = [_op(pick, stores, others, features, menu) for _ in range(pick.int(*ops))]
        for _ in range(pick.int(1, 2) if i < group else 0):
            script.insert(pick.int(0, len(script)), ("collective", pick.choice(SIZES)))
        if raiser and i == 0 and (join or join is None and pick.choice((False, True))):
            script.insert(0 if join else pick.int(0, len(script)), ("join", "raiser"))
        procs.append(ProcSpec(name, tuple(script), pick.choice(DURATIONS),
                              pick.choice((False, True)) if fragile is None else fragile))
    if raiser:
        nested = tuple(k for k in NESTED if k in menu)
        script = [_op(pick, stores, (), features, nested) for _ in range(pick.int(0, 2))]
        procs.append(ProcSpec("raiser", (*script, ("raise",))))
    if watch or (watch is None and pick.choice((False, True))):
        procs += _watch_group(pick, stores)
    seeds = [(pick.int(0, len(stores) - 1), _key(pick, False), pick.choice(SIZES))
             for _ in range(pick.int(0, 2))]
    if kill is not False and (kill or pick.choice((False, True))):  # rather one that blocks
        victims = [p.name for p in procs if any(op[0] in BLOCKING for op in p.ops)]
        kill = (pick.choice(tuple(victims or everyone)),
                pick.choice((0.1, 0.0, 0.01, 0.05, 0.2, 0.6)))
    else:
        kill = None
    slices: tuple = ()
    if sliced or (sliced is None and pick.choice((False, True))):
        t = 0.0
        for _ in range(pick.int(*pauses)):
            t += pick.choice((0.005, 0.01, 0.02, 0.05, 0.3))
            slices += (t,)
    world = World(stores, procs, seeds, catalog or pick.choice(("default", "awkward")),
                  group if group > 1 else 0, kill, slices, features)
    _static_features(world)
    return world


def _watch_group(pick, stores) -> list[ProcSpec]:
    """Count waiters on nested prefixes of one base, in any order; a writer under it.

    The writer puts, range-discards a prefix of the base, then puts again.
    """
    s = pick.int(0, len(stores) - 1)
    base = pick.choice(BASES)
    cuts = (0, *(i + 1 for i, c in enumerate(base) if c == "/"), len(base))
    poll = pick.choice(POLLS)
    group = [ProcSpec(f"g{j}", (("wait_count", s, base[:pick.choice(cuts)], pick.int(1, 3),
                                 poll),))
             for j in range(pick.int(2, 3))]
    keys = [base + leaf for leaf in LEAVES]
    writer = (("sleep", pick.choice(DURATIONS)), ("put", s, keys[0], 8),
              ("discard_prefix", s, base[:pick.choice(cuts)]), ("put", s, keys[1], 8),
              ("put", s, keys[2], 8))
    return [*group, ProcSpec("writer", writer)]


def _static_features(world: World) -> None:
    features = world.features
    features.update(spec.kind for spec in world.stores)
    puts = [(s, key) for s, key, _ in world.seeds]
    for proc in world.procs:
        for op in proc.ops:
            if op[0] in STORAGE_OPS and world.stores[op[1]].kind in ("redis", "memcached"):
                features.add("early_arrival")  # every cache node starts after 0
            if op[0] == "put":
                puts.append(op[1:3])
            elif op[0] == "put_each":
                puts += [(op[1], key) for key, _ in op[2]]
    for name, on in (("overwrite", len(puts) > len(set(puts))),
                     ("flaky", any(s.fault for s in world.stores)),
                     ("retention", any(s.retention is not None for s in world.stores)),
                     ("seed_object", world.seeds), ("daemon", world.kill),
                     ("sliced", world.slices)):
        if on:
            features.add(name)


def cancelled_waiter_world() -> World:
    """Count waiters g1, g2, g3 with targets 1, 2, 3 on one prefix; g3 killed mid-wait.

    A second apart, a writer then puts two keys under the prefix. The
    prefix's record must keep the smallest target still waited on, so
    the first put wakes g1 and the second g2.
    """
    waiters = [ProcSpec(f"g{n}", (("wait_count", 0, "x/", n, 0.01),)) for n in (1, 2, 3)]
    writer = ProcSpec("writer", (("sleep", 0.05), ("put", 0, "x/0", 8), ("sleep", 1.0),
                                 ("put", 0, "x/1", 8)))
    return World([StoreSpec("s3")], [*waiters, writer], kill=("g3", 0.0))


def pattern_world(pattern: str, kind: str, workers: int, *, fault=None, kill=None,
                  rounds: int = 2, nbytes: int = 40_000) -> World:
    """`rounds` exchanges of `workers` ranks, drifting apart between rounds."""
    procs = [ProcSpec(f"worker-{rank}", tuple(
        op for r in range(rounds)
        for op in (("exchange", 0, pattern, rank, workers, r, nbytes),
                   ("compute", 0.01 * (rank % 5)))))
        for rank in range(workers)]
    return World([StoreSpec(kind, fault=fault)], procs, kill=kill)


# ---------------------------------------------------------------------------
# Running one world on one side
# ---------------------------------------------------------------------------
class _Ledger(dict):
    """``CostMeter.dollars`` that logs every write, as the reference meter does."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[tuple[str, str]] = []

    def __missing__(self, component: str) -> float:
        return 0.0

    def __setitem__(self, component: str, dollars: float) -> None:
        self.writes.append((component, dollars.hex()))
        super().__setitem__(component, dollars)


def _collective_seconds(nbytes: int, size: int) -> float:
    return 0.001 * size + nbytes / 1e9


def _payload(key: str, nbytes: int) -> SizedPayload:
    return SizedPayload(np.full(4, 0.5) if key.startswith("grad/") else None, nbytes)


def canon(value):
    """`value` with floats as hex: equal iff observably equal."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, SizedPayload):
        return ("sized", value.nbytes, canon(value.value))
    if isinstance(value, np.ndarray):
        return ("array", [canon(float(x)) for x in value.ravel()])
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    return value


def describe(exc: BaseException | None):
    return None if exc is None else (type(exc).__name__, str(exc))


class Side:
    """One materialization of a world: the real engine and stores, or the reference.

    `per_op` runs the reference patterns (one op per yield) on the real
    engine instead of the real patterns' sequences.
    """

    def __init__(self, world: World, reference: bool, per_op: bool = False) -> None:
        self.reference = reference
        self.per_op = per_op
        self.log: list[tuple] = []
        self.errors: list[tuple] = []
        self.features: set[str] = set()
        self.current: dict[str, str] = {}  # process -> the op it is on
        self.last: dict[str, str] = {}  # process -> the last command an exchange yielded
        catalog = CATALOGS[world.catalog]
        self.engine = (RefEngine if reference else Engine)()
        self.stats = None if reference else self.engine.enable_stats()
        self.meter = RefMeter(catalog) if reference else CostMeter(catalog)
        if not reference:
            self.meter.dollars = _Ledger()
        self.stores = []
        for i, spec in enumerate(world.stores):
            meter = None if reference else self.meter
            if spec.kind == "ps":
                store = make_parameter_server("c5.xlarge", PS_PARAMS, MB, lr=0.1, meter=meter)
            else:
                store = SERVICES[spec.kind](meter=meter)
            policy = None if spec.fault is None else StorageFaultPolicy(FaultPlan(
                seed=11, storage_error_rate=spec.fault[0],
                retry=RetryPolicy(limit=spec.fault[1])), f"store{i}")
            if reference:  # the real store's profile and PS timing model, as data
                store = RefStore(spec.kind, store.profile, self.meter, fault=policy,
                                 available_at=spec.available_at,
                                 timing=getattr(store, "timing", None),
                                 params=PS_PARAMS.copy(), lr=0.1, param_bytes=MB)
            else:
                store.fault_policy = policy
                if spec.available_at is not None:
                    store.available_at = spec.available_at
            if spec.retention is not None:
                store.retention = RefRetention() if reference else real_patterns.RetentionWindow()
                store.retention.floor = spec.retention
            if spec.queue is not None:
                store.queue = self.stores[spec.queue].queue
            self.stores.append(store)
        for s, key, nbytes in world.seeds:
            self.stores[s].seed_object(key, _payload(key, nbytes))
        self.group = CollectiveGroup("g", world.group, _collective_seconds)
        # Every process either engine runs is spawned here, in this order:
        # `spawned` is what `observe` reads.
        self.procs = {}
        for spec in world.procs:
            self.procs[spec.name] = self.engine.spawn(self.script(spec), spec.name, spec.delay)
        self.spawned = list(self.procs.values())
        if world.kill:
            self.spawned.append(self.engine.spawn(self.reaper(*world.kill), "reaper", daemon=True))

    def note(self, name: str, op: str, outcome) -> None:
        self.log.append((name, self.engine.now.hex(), op, outcome))

    def command(self, op: tuple):
        kind, args = op[0], op[1:]
        if kind in ("sleep", "compute"):
            return (Sleep if kind == "sleep" else Compute)(args[0])
        if kind == "collective":
            return Collective(self.group, args[0])
        if kind == "join":
            return Join(self.procs[args[0]])
        store, arg = self.stores[args[0]], args[1]
        if kind == "put":
            return Put(store, arg, _payload(arg, args[2]))
        if kind == "put_each":
            return PutEach(store, [(key, _payload(key, n)) for key, n in arg])
        if kind == "wait_key":  # a count of one on a full key: the AllReduce follower's wait
            self.features.add("wait_on_a_key")
            return WaitKeyCount(store, arg, 1, args[2])
        if kind == "wait_count":
            return WaitKeyCount(store, *args[1:])
        return {"get": Get, "get_each": GetEach, "list": ListKeys}[kind](
            store, list(arg) if kind == "get_each" else arg)

    def script(self, spec: ProcSpec):
        for op in spec.ops:
            kind = op[0]
            self.current[spec.name] = kind
            if kind == "raise":
                raise ValueError(f"{spec.name} gives up")
            if kind in ZERO_TIME:
                store = self.stores[op[1]]
                self.features.add(kind)
                if kind == "advance":
                    outcome = store.retention.advance(store, op[2])
                else:
                    outcome = getattr(store, kind)(*op[2:])
                self.note(spec.name, kind, canon(outcome))
                continue
            if kind == "exchange":
                if (yield from self.exchange(spec.name, *op[1:])):
                    return "gave up"
                continue
            command = self.command(op)
            self.features.add(type(command).__name__)
            try:
                value = yield command
            except (KeyNotFoundError, TransientStorageError, ValueError) as exc:
                self.note(spec.name, kind, describe(exc))
                if kind == "join" and isinstance(exc, ValueError):
                    self.features.add("join_failed")
                if spec.fragile:
                    raise
                continue
            self.note(spec.name, kind, canon(value))
        return spec.name

    def exchange(self, name, s, pattern, rank, workers, r, nbytes):
        """One round of a pattern, its end noted; True if storage gave up on it."""
        gen = EXCHANGES[pattern][self.reference or self.per_op](
            self.stores[s], rank, workers, f"{r:08d}", nbytes)
        value = error = None
        while True:
            try:
                command = gen.send(value) if error is None else gen.throw(error)
            except StopIteration:
                break
            except TransientStorageError as exc:
                self.note(name, "exchange", describe(exc))
                return True
            self.last[name] = type(command).__name__
            value = error = None
            try:
                value = yield command
            except TransientStorageError as exc:
                error = exc
        self.note(name, "exchange", r)
        return False

    def reaper(self, victim: str, at: float):
        """Kill `victim` once it is in an exchange, a sequence or a wait after `at` (or 1 s on)."""
        yield Sleep(at)
        target = self.procs[victim]
        for _ in range(200):
            on = self.current.get(victim) if target.alive else None
            if on in BLOCKING:
                self.features.add("kill_mid_sequence" if "each" in on else "kill_mid_wait")
            if on in (*BLOCKING, "exchange"):
                break
            yield Sleep(0.005)
        self.note("reaper", "kill", victim)
        self.engine.kill(target)
        for _ in range(20):  # ticks past the job's end are never dispatched
            yield Sleep(0.03)

    def run(self, slices: tuple) -> None:
        for until in (*slices, None):
            while True:
                try:
                    if until is None:
                        self.engine.run()
                    else:
                        self.engine.run(until=until)
                    break
                except Exception as exc:  # noqa: BLE001 - every escape is an outcome
                    self.errors.append((*describe(exc), self.engine.now.hex()))
                    if isinstance(exc, DeadlockError) or len(self.errors) >= 64:
                        return

    def observe(self) -> dict:
        ref = self.reference
        processes = [
            (p.name, p.state if ref else p.state.value, canon(p.result), describe(p.exception),
             canon(p.started_at), canon(p.finished_at),
             {k: v.hex() for k, v in sorted((p.trace if ref else p.trace.seconds).items()) if v})
            for p in self.spawned
        ]
        stores = [
            ({key: canon(v) for key, v in sorted((s.objects if ref else s._objects).items())},
             {k: float(v).hex() for k, v in s.fault_events.items()},
             canon(getattr(s, "params", None)),
             s.retention and (s.retention.floor, s.retention.collected))
            for s in self.stores
        ]
        meter = self.meter
        return {
            "log": self.log,
            "errors": self.errors,
            "clock": self.engine.now.hex(),
            "processes": processes,
            "dollars": {k: v.hex() for k, v in sorted(meter.dollars.items()) if v},
            "writes": meter.writes if ref else meter.dollars.writes,
            "counters": {k: v for k, v in sorted(meter.counters.items()) if v},
            "stores": stores,
        }


def simulate(world: World, reference: bool, per_op: bool = False) -> Side:
    """Run `world` on one side; the side, what is observable as its `outcome`."""
    side = Side(world, reference, per_op)
    side.run(() if reference else world.slices)
    side.outcome = outcome = side.observe()
    errors = {name for name, *_ in outcome["errors"]}
    side.features |= world.features
    for feature, on in (("resume_after_raise", "ValueError" in errors),
                        ("over_limit_put", "ItemTooLargeError" in errors),
                        ("retry_exhaustion", any(float.fromhex(f["exhaustions"])
                                                 for _, f, *_ in outcome["stores"]))):
        if on:
            side.features.add(feature)
    return side


def _stats(side: Side) -> tuple:
    return side.stats.events, side.stats.batches, side.stats.peak_heap


def assert_same_world(world: World) -> tuple[Side, Side]:
    """Both sides agree on everything observable; (the real side, the reference side).

    The reference side's features are what the world exercised, so a
    defect in the real engine shows as a difference, never as a feature
    going missing. Two properties no reference can see are checked on
    the real engine alone: a sliced run dispatches the events, batches
    and peak queue of one run (pauses fall between batches), and so do
    the patterns' sequences and the reference patterns' single ops.
    """
    real = simulate(world, reference=False)
    ref = simulate(world, reference=True)
    assert real.outcome["log"] == ref.outcome["log"]
    assert real.outcome == ref.outcome
    twins = []
    if world.slices:
        twins.append(simulate(replace(world, slices=()), reference=False))
    if any(op[0] == "exchange" for proc in world.procs for op in proc.ops):
        twins.append(simulate(world, reference=False, per_op=True))
    for twin in twins:
        assert twin.outcome == real.outcome
        assert _stats(twin) == _stats(real)
    return real, ref
