"""MPI-style collectives for IaaS executors.

Distributed PyTorch communicates through Gloo's ring AllReduce over
VM-to-VM links; we model one collective as a rendezvous of all workers
(the engine's :class:`Collective` command) whose duration follows the
paper's analytical term (2w-2)(m/w / B_n + L_n), using the logical
payload size. Like the storage patterns, the collective carries a byte
count and no values: the floats a BSP round merges are folded in the
lockstep pass (:mod:`repro.substrate.lockstep`).
"""

from __future__ import annotations

from repro.iaas.cluster import VMCluster
from repro.simulation.commands import Collective, CollectiveGroup


class MPICommunicator:
    """Per-cluster communicator handing out collective commands."""

    def __init__(self, cluster: VMCluster) -> None:
        self.cluster = cluster
        self.reset()

    def allreduce(self, logical_nbytes: int):
        """Command for `yield`: one AllReduce of `logical_nbytes` per member."""
        return Collective(group=self._group, nbytes=logical_nbytes, category="comm")

    def reset(self) -> None:
        """Forget all rendezvous state (fault-injected job restart).

        Killed workers may be parked inside a half-full collective
        round; a fresh group gives the restarted cohort fresh
        ``pending``/``round_counter`` maps so stale contributions can
        never count towards a new rendezvous.
        """
        self._group = CollectiveGroup(
            name="allreduce",
            size=self.cluster.workers,
            time_fn=lambda nbytes, size: self.cluster.ring_allreduce_seconds(nbytes),
        )
