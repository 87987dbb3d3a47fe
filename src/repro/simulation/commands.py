"""Commands that simulated processes yield to the engine.

A process is a generator; each `yield <command>` suspends it until the
engine has charged the simulated duration of the command (including any
queueing on contended services) and applied its data effect. The value
sent back into the generator is the command's result (e.g. the object
returned by :class:`Get`). A storage-op sequence (:class:`PutEach`,
:class:`GetEach`) is its ops' events, items pulled as they issue, one resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.simulation.engine import Process
    from repro.storage.base import ObjectStore


@dataclass
class Sleep:
    """Advance this process's clock by `duration` seconds."""

    duration: float
    category: str = "idle"


@dataclass
class Compute:
    """Like Sleep, but accounted as computation in the time breakdown."""

    duration: float
    category: str = "compute"


@dataclass
class Put:
    """Write `value` under `key`; charged latency + ``value.nbytes``/bandwidth.

    `value` must be a :class:`~repro.utils.serialization.SizedPayload`.
    """

    store: "ObjectStore"
    key: str
    value: Any
    category: str = "comm"


@dataclass
class Get:
    """Read the object under `key`; raises KeyNotFoundError if absent."""

    store: "ObjectStore"
    key: str
    category: str = "comm"


@dataclass
class PutEach:
    """A :class:`Put` per ``(key, value)`` of `items`; results: their byte counts."""

    store: "ObjectStore"
    items: Iterable
    category: str = "comm"


@dataclass
class GetEach:
    """A :class:`Get` per key of `keys`; results: the objects read (or item k's error)."""

    store: "ObjectStore"
    keys: Iterable
    category: str = "comm"


@dataclass
class ListKeys:
    """List keys with the given prefix; result is a sorted list of names."""

    store: "ObjectStore"
    prefix: str = ""
    category: str = "comm"


@dataclass
class WaitKeyCount:
    """Block until at least `count` keys with `prefix` exist.

    Implements both phases of the synchronous protocol: the aggregator
    lists files named by epoch/iteration/partition and waits until the
    number of matching files equals the number of workers, and every
    other worker waits for a count of one on the merged file's name.
    The process wakes one poll interval after the condition becomes
    visible and is charged one list request per simulated poll.
    """

    store: "ObjectStore"
    prefix: str
    count: int
    poll_interval: float = 0.05
    category: str = "wait"


@dataclass
class Join:
    """Block until `process` finishes; result is its return value."""

    process: "Process"
    category: str = "wait"


@dataclass
class Collective:
    """Rendezvous of `group.size` processes (AllReduce / barrier on IaaS).

    All participants of a round block until the last one arrives; the
    group's time model is then charged once, sized by the largest
    ``nbytes``, and every participant resumes at the same simulated
    instant. A collective moves a byte count, never values.
    """

    group: "CollectiveGroup"
    nbytes: int
    category: str = "comm"


@dataclass
class CollectiveGroup:
    """Identity + timing rule for a set of collective peers."""

    name: str
    size: int
    # time_fn(nbytes_per_member, size) -> seconds for one collective.
    time_fn: Any = None
    # Internal rendezvous state, managed by the engine.
    pending: dict = field(default_factory=dict, repr=False)
    round_counter: dict = field(default_factory=dict, repr=False)
