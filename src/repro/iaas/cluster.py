"""VM cluster start-up model.

Table 6 measures t_I(w) — the time to start a w-node EC2 cluster with
StarCluster, mount shared volumes, configure SSH, and dispatch the
training job: 132 s at 10 nodes, 160 s at 50, 292 s at 100, 606 s at
200. A single VM (the hybrid architecture's parameter server) comes up
in about 120 s (Figure 10 shows 123 s of start-up for HybridPS, which
skips job dispatch).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.iaas.vm import InstanceSpec, get_instance
from repro.utils.stats import log_interp

STARTUP_ANCHORS = [(1, 120.0), (10, 132.0), (50, 160.0), (100, 292.0), (200, 606.0)]


def iaas_startup_seconds(workers: int) -> float:
    """t_I(w): time until a w-VM training cluster is ready."""
    return log_interp(STARTUP_ANCHORS, workers)


@dataclass
class VMCluster:
    """A homogeneous training cluster."""

    instance: InstanceSpec
    workers: int
    startup_s: float = field(init=False)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        self.startup_s = iaas_startup_seconds(self.workers)

    @classmethod
    def build(cls, instance_name: str, workers: int) -> "VMCluster":
        return cls(instance=get_instance(instance_name), workers=workers)

    def ring_allreduce_seconds(self, nbytes: int) -> float:
        """(2w-2) * (m/w / B_n + L_n): the paper's IaaS communication term."""
        w = self.workers
        if w == 1:
            return 0.0
        per_hop = (nbytes / w) / self.instance.network_bps + self.instance.network_latency_s
        return (2 * w - 2) * per_hop
