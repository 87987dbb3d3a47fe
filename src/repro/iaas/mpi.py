"""MPI-style collectives for IaaS executors.

Distributed PyTorch communicates through Gloo's ring AllReduce over
VM-to-VM links; we model one collective as a rendezvous of all workers
(the engine's :class:`Collective` command) whose duration follows the
paper's analytical term (2w-2)(m/w / B_n + L_n), using the logical
payload size.
"""

from __future__ import annotations

import numpy as np

from repro.comm.aggregator import reduce_vectors
from repro.iaas.cluster import VMCluster
from repro.simulation.commands import Collective, CollectiveGroup
from repro.utils.serialization import SizedPayload, unwrap


class MPICommunicator:
    """Per-cluster communicator handing out collective commands."""

    def __init__(self, cluster: VMCluster) -> None:
        self.cluster = cluster
        self._groups: dict[str, CollectiveGroup] = {}

    def _group(self, reduce: str) -> CollectiveGroup:
        if reduce not in self._groups:
            self._groups[reduce] = CollectiveGroup(
                name=f"allreduce-{reduce}",
                size=self.cluster.workers,
                reduce_fn=self._make_reduce_fn(reduce),
                time_fn=lambda nbytes, size: self.cluster.ring_allreduce_seconds(nbytes),
            )
        return self._groups[reduce]

    @staticmethod
    def _make_reduce_fn(reduce: str):
        def fn(payloads: list) -> np.ndarray:
            vectors = [np.asarray(unwrap(p)) for p in payloads]
            return reduce_vectors(vectors, reduce)

        return fn

    def allreduce(self, vector: np.ndarray, logical_nbytes: int, reduce: str = "mean"):
        """Command for `yield`: AllReduce this worker's contribution."""
        return Collective(
            group=self._group(reduce),
            value=SizedPayload(vector, logical_nbytes),
            category="comm",
        )

    def reset(self) -> None:
        """Forget all rendezvous state (fault-injected job restart).

        Killed workers may be parked inside a half-full collective
        round; dropping the groups gives the restarted cohort fresh
        ``pending``/``round_counter`` maps so stale contributions can
        never fold into a new rendezvous.
        """
        self._groups.clear()

