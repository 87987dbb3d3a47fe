"""Deterministic discrete-event simulation substrate.

Every "cloud" component in this reproduction (Lambda functions, VMs,
storage services, networks) runs on top of this engine. Workers are
plain Python generators that *yield* commands (compute for t seconds,
put an object, wait for a key, join a collective); the engine advances
a simulated clock, models contention on shared services, applies data
effects in simulated-chronological order, and records a per-process
time breakdown (startup / load / compute / communication / wait) that
backs Figure 10 of the paper.
"""

from repro.simulation.commands import (
    Collective,
    Compute,
    Get,
    Join,
    ListKeys,
    Put,
    Sleep,
    WaitKeyCount,
)
from repro.simulation.engine import Engine, Process, ProcessState
from repro.simulation.resources import ServiceQueue
from repro.simulation.tracing import TimeBreakdown

__all__ = [
    "Engine",
    "Process",
    "ProcessState",
    "ServiceQueue",
    "TimeBreakdown",
    "Sleep",
    "Compute",
    "Put",
    "Get",
    "ListKeys",
    "WaitKeyCount",
    "Join",
    "Collective",
]
