"""Concrete simulated storage services and the channel factory.

Performance envelopes come from Table 6 of the paper (measured on AWS):

* S3 — always-on, high-latency (80 ms), ~65 MB/s per connection, cheap
  per-request billing, effectively unlimited concurrency.
* ElastiCache Memcached — in-memory, 10 ms latency, node-dependent
  bandwidth (630 MB/s on cache.t3.medium), multi-threaded, but takes
  minutes to start and bills node-hours.
* ElastiCache Redis — same envelope as Memcached except a single worker
  thread, which serialises concurrent transfers (Section 4.3 finds it
  inferior to Memcached for large models / many workers).
* DynamoDB — always-on, lower latency than S3 (the paper reports ~20 %
  faster communication for small models) but a 400 KB item limit that
  rules out medium/large models.
* VM disk (EBS gp2) — used for checkpoints and the hot-data case study.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.pricing.meter import CostMeter
from repro.storage.base import ObjectStore, StorageProfile

MB = 1024 * 1024

# ElastiCache node envelopes (bandwidth from Table 6 where measured).
ELASTICACHE_NODES = {
    "cache.t3.small": {"bandwidth_bps": 500 * MB, "latency_s": 1.2e-2},
    "cache.t3.medium": {"bandwidth_bps": 630 * MB, "latency_s": 1.0e-2},
    "cache.m5.large": {"bandwidth_bps": 1260 * MB, "latency_s": 0.8e-2},
}

ELASTICACHE_STARTUP_S = 140.0  # "more than two minutes to start Memcached"
DYNAMODB_MAX_ITEM_BYTES = 400 * 1024

# The Table-6 envelopes the analytical model and the serving tier's
# model loads read too.
S3_PROFILE = StorageProfile(
    name="s3",
    latency_s=8e-2,
    bandwidth_bps=65 * MB,
    concurrency=64,
    startup_s=0.0,
)
EBS_PROFILE = StorageProfile(
    name="ebs-gp2",
    latency_s=3e-5,
    bandwidth_bps=1950 * MB,
    concurrency=8,
    startup_s=0.0,
)


class S3Store(ObjectStore):
    """Disk-based, always-on object storage with request billing."""

    def __init__(self, meter: CostMeter | None = None) -> None:
        super().__init__(S3_PROFILE, meter=meter)

    def _request_prices(self, meter: CostMeter | None) -> dict | None:
        return {} if meter is None else meter.s3_request_prices()


class _ElastiCacheStore(ObjectStore):
    """An ElastiCache node: Table-6 envelope, minutes to start, node-hours."""

    _engine: str  # profile name prefix
    _threads: int  # worker threads serving concurrent transfers

    def __init__(self, node: str = "cache.t3.small", meter: CostMeter | None = None):
        try:
            env = ELASTICACHE_NODES[node]
        except KeyError:
            raise ConfigurationError(
                f"unknown ElastiCache node {node!r}; known: {sorted(ELASTICACHE_NODES)}"
            ) from None
        profile = StorageProfile(
            name=f"{self._engine}[{node}]",
            latency_s=env["latency_s"],
            bandwidth_bps=env["bandwidth_bps"],
            concurrency=self._threads,
            startup_s=ELASTICACHE_STARTUP_S,
        )
        super().__init__(profile, meter=meter)
        self.node = node


class MemcachedStore(_ElastiCacheStore):
    """ElastiCache-for-Memcached: fast, multi-threaded, slow to start."""

    _engine, _threads = "memcached", 8


class RedisStore(_ElastiCacheStore):
    """ElastiCache-for-Redis: same node envelope, single worker thread."""

    _engine, _threads = "redis", 1


class DynamoDBStore(ObjectStore):
    """Serverless key-value DB: no startup, 400 KB item limit."""

    def __init__(self, meter: CostMeter | None = None) -> None:
        profile = StorageProfile(
            name="dynamodb",
            latency_s=6e-2,
            bandwidth_bps=80 * MB,
            concurrency=32,
            startup_s=0.0,
            max_item_bytes=DYNAMODB_MAX_ITEM_BYTES,
        )
        super().__init__(profile, meter=meter)

    def stored_item_bytes(self, nbytes: int) -> int:
        # Items are stored serialized; framing adds ~12 % plus a header,
        # which pushes the 378 KB RCV1 model over the 400 KB limit as
        # the paper observes ("infeasible for many median models").
        return int(nbytes * 1.12) + 256

    def _request_prices(self, meter: CostMeter | None) -> dict | None:
        # Request units grow with the item size: priced per op by _bill.
        return {} if meter is None else None

    def _bill(self, op: str, nbytes: int, count: int = 1) -> None:
        if self.meter is not None:
            self.meter.bill_dynamodb_request(op, nbytes, count)


class VMDiskStore(ObjectStore):
    """EBS gp2 volume attached to a VM (checkpoints, hot data)."""

    def __init__(self, meter: CostMeter | None = None) -> None:
        super().__init__(EBS_PROFILE, meter=meter)


@dataclass
class Channel:
    """A communication channel plus the billing metadata the job needs."""

    store: ObjectStore
    kind: str
    node: str | None = None

    @property
    def startup_s(self) -> float:
        return self.store.profile.startup_s


def make_channel(
    kind: str,
    meter: CostMeter | None = None,
    node: str = "cache.t3.small",
) -> Channel:
    """Build a channel by name: s3 | memcached | redis | dynamodb."""
    if kind == "s3":
        return Channel(S3Store(meter=meter), kind)
    if kind == "memcached":
        return Channel(MemcachedStore(node=node, meter=meter), kind, node=node)
    if kind == "redis":
        return Channel(RedisStore(node=node, meter=meter), kind, node=node)
    if kind == "dynamodb":
        return Channel(DynamoDBStore(meter=meter), kind)
    raise ConfigurationError(
        f"unknown channel {kind!r}; expected s3|memcached|redis|dynamodb"
    )
