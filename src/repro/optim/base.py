"""Round-based API shared by all distributed optimization algorithms.

Training is a sequence of *communication rounds*. Per round, each
worker:

1. calls :meth:`round_payload` — real numpy computation producing the
   statistic to aggregate (gradient / local model / consensus term /
   k-means sufficient statistics);
2. has the payloads reduced across workers (element-wise mean or sum,
   per :attr:`reduce`) — for BSP, in rank order by the lockstep pass
   (:mod:`repro.substrate.lockstep`);
3. calls :meth:`apply` with the merged vector (the lockstep pass goes
   through :meth:`~DistributedAlgorithm.apply_merged`, which GA-SGD
   overrides to build its step once for all ranks).

:meth:`round_work` reports how many instances/iterations the round
processed so executors can charge simulated compute time, and
:attr:`epochs_per_round` converts rounds to data epochs (ADMM scans the
data ten times per round; GA-SGD syncs many times per epoch).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.data.loader import Shard, Shards
from repro.errors import ConfigurationError
from repro.utils.rng import make_rng


class DistributedAlgorithm(abc.ABC):
    """Per-worker algorithm state machine."""

    #: How payloads are combined across workers: "mean" or "sum".
    reduce: str = "mean"

    def __init__(self, shard: Shard) -> None:
        self.shard = shard

    # -- structure ----------------------------------------------------------
    @property
    @abc.abstractmethod
    def epochs_per_round(self) -> float:
        """Data epochs consumed by one communication round."""

    @abc.abstractmethod
    def round_work(self) -> tuple[float, float]:
        """(instances, iterations) of training work in one round."""

    def eval_work(self) -> tuple[float, float]:
        """(instances, iterations) of one validation-loss evaluation."""
        return (float(self.shard.y_val.shape[0]), 1.0)

    # -- computation ----------------------------------------------------------
    @abc.abstractmethod
    def round_payload(self) -> np.ndarray:
        """Run the round's local computation; return the statistic vector."""

    @classmethod
    def round_payloads(cls, algos: list, shards: Shards) -> list[np.ndarray]:
        """Every rank's :meth:`round_payload`, in rank order.

        The lockstep pass's stepping hook (:mod:`repro.substrate.lockstep`).
        Ranks run one by one here; ADMM, MA-SGD and GA-SGD override it
        with one stacked call per minibatch step when :func:`stacked`
        allows. Either way each rank ends in the state its own
        ``round_payload()`` would have left.
        """
        return [algo.round_payload() for algo in algos]

    @abc.abstractmethod
    def apply(self, merged: np.ndarray) -> None:
        """Install the aggregated statistic into local state."""

    @classmethod
    def apply_merged(cls, algos: list, merged: np.ndarray) -> None:
        """Every rank's :meth:`apply` of the round's `merged` vector.

        The lockstep pass's update hook, next to :meth:`round_payloads`.
        Ranks apply one by one here; GA-SGD overrides it to compute the
        step, which is the same on every rank, once. Either way each
        rank ends in the state its own ``apply(merged)`` would have left.
        """
        for algo in algos:
            algo.apply(merged)

    @abc.abstractmethod
    def local_loss(self) -> float:
        """Loss of the current local state (validation for supervised)."""

    @property
    @abc.abstractmethod
    def params(self) -> np.ndarray:
        """Current parameters as a flat vector (checkpointing / tests)."""

    @params.setter
    def params(self, value: np.ndarray) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


def stacked(algos: list, shards: Shards) -> bool:
    """Can these ranks' minibatch steps run as stacked calls?

    Dense data (one shard block to gather from) and a model whose
    gradient takes stacked ranks. Sparse data and neural networks run
    rank by rank.
    """
    return shards.X is not None and algos[0].model.stacks


def initial_model(name: str, model, seed: int, X) -> np.ndarray:
    """The model every rank of a run starts from, drawn once per run.

    k-means EM needs one initialisation sampled from the global training
    rows `X` (the starter's broadcast in LambdaML); the others start
    from the model's ``init_params``, which every worker would draw
    alike from the shared seed. The array is read-only: ranks that never
    update their model in place hold this one array until their first
    round replaces it, so a stray in-place write raises instead of
    moving every rank.
    """
    init = model.init_centroids(X, rng=seed) if name == "em" else model.init_params(make_rng(seed))
    init.flags.writeable = False
    return init


def make_algorithm(
    name: str,
    model,
    shard: Shard,
    lr: float,
    init: np.ndarray,
    admm_rho: float = 0.05,
    admm_scans: int = 10,
    ma_sync_epochs: int = 1,
) -> DistributedAlgorithm:
    """Factory resolving the paper's algorithm names; `init` is the
    run's :func:`initial_model`, handed to every rank."""
    from repro.optim.admm import ADMM
    from repro.optim.em import KMeansEM
    from repro.optim.gradient_averaging import GradientAveragingSGD
    from repro.optim.model_averaging import ModelAveragingSGD

    if name == "ga_sgd":
        return GradientAveragingSGD(model, shard, lr=lr, init=init)
    if name == "ma_sgd":
        return ModelAveragingSGD(model, shard, lr=lr, init=init, sync_epochs=ma_sync_epochs)
    if name == "admm":
        return ADMM(model, shard, lr=lr, init=init, rho=admm_rho, scans=admm_scans)
    if name == "em":
        return KMeansEM(model, shard, init=init)
    raise ConfigurationError(
        f"unknown algorithm {name!r}; expected ga_sgd|ma_sgd|admm|em"
    )
