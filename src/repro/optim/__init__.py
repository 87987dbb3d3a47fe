"""Distributed optimization algorithms (paper Section 3.2.1).

Each algorithm is a per-worker state machine with a uniform "round"
API: produce a statistic vector to aggregate (gradient, local model,
ADMM consensus term, k-means sufficient statistics), then apply the
merged result. Executors — FaaS, IaaS or hybrid — drive the rounds and
charge simulated compute time using :meth:`round_work`.
"""

from repro.optim.admm import ADMM
from repro.optim.base import DistributedAlgorithm, make_algorithm
from repro.optim.em import KMeansEM
from repro.optim.gradient_averaging import GradientAveragingSGD
from repro.optim.local import sgd_epoch
from repro.optim.model_averaging import ModelAveragingSGD

__all__ = [
    "DistributedAlgorithm",
    "make_algorithm",
    "GradientAveragingSGD",
    "ModelAveragingSGD",
    "ADMM",
    "KMeansEM",
    "sgd_epoch",
]
