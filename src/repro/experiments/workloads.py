"""Tuned workload definitions (the reproduction's Table 4).

The paper tunes the learning rate per workload in [0.001, 1] and stops
at fixed loss thresholds. Our synthetic datasets preserve each
dataset's character but not its absolute loss scale everywhere, so each
workload records both the paper's threshold and the threshold used
here.

Batch sizes follow the paper: B=100K for the Higgs micro-benchmarks
(§4.1), B=10K for the Higgs end-to-end runs, B=2K on RCV1, B=800 on
YFCC100M, and per-worker 128/32 for MobileNet/ResNet50 (bounded by
Lambda's 3 GB memory).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Workload:
    """One (model, dataset) training task with tuned hyper-parameters."""

    model: str
    dataset: str
    algorithm: str  # the paper's best algorithm for this workload
    workers: int  # Table 4 worker count
    batch_size: int
    batch_scope: str = "global"
    lr: float = 0.05
    k: int = 10
    min_local_batch: int = 1  # physical batch floor (see data.loader)
    threshold: float = 0.0  # our loss threshold
    paper_threshold: float = 0.0  # what the paper stops at
    max_epochs: float = 60.0

    @property
    def key(self) -> str:
        return f"{self.model}/{self.dataset}"


WORKLOADS: dict[str, Workload] = {
    w.key: w
    for w in [
        # Table 4 row: LR/SVM/KMeans on Higgs, W=10, B=10K.
        Workload(
            "lr", "higgs", "admm", workers=10, batch_size=10_000,
            lr=0.05, threshold=0.66, paper_threshold=0.66, max_epochs=60,
        ),
        # The conditioned generator's squared-hinge consensus plateaus
        # near 0.42; 0.44 plays the role of the paper's 0.48.
        Workload(
            "svm", "higgs", "admm", workers=10, batch_size=10_000,
            lr=0.05, threshold=0.47, paper_threshold=0.48, max_epochs=60,
        ),
        # The conditioned generator plateaus near 0.19 relative
        # quantization error with k=10 over 8 latent clusters.
        Workload(
            "kmeans", "higgs", "em", workers=10, batch_size=10_000, k=10,
            threshold=0.20, paper_threshold=0.15, max_epochs=40,
        ),
        # LR/SVM on RCV1, W=5, B=2K; KMeans on RCV1, W=50, k=3.
        Workload(
            "lr", "rcv1", "admm", workers=5, batch_size=2_000,
            lr=2.0, threshold=0.68, paper_threshold=0.68, max_epochs=40,
        ),
        Workload(
            "svm", "rcv1", "admm", workers=5, batch_size=2_000,
            lr=3.0, threshold=0.48, paper_threshold=0.05, max_epochs=40,
        ),
        Workload(
            "kmeans", "rcv1", "em", workers=50, batch_size=2_000, k=3,
            threshold=0.58, paper_threshold=0.01, max_epochs=30,
        ),
        # LR/SVM/KMeans on YFCC100M, W=100, B=800. The paper's "50"
        # threshold is an unnormalised sum; ours are mean-loss scale.
        Workload(
            "lr", "yfcc100m", "admm", workers=100, batch_size=800,
            lr=2.0, min_local_batch=32, threshold=0.45, paper_threshold=50.0, max_epochs=40,
        ),
        Workload(
            "svm", "yfcc100m", "admm", workers=100, batch_size=800,
            lr=1.0, min_local_batch=32, threshold=0.42, paper_threshold=50.0, max_epochs=40,
        ),
        Workload(
            "kmeans", "yfcc100m", "em", workers=100, batch_size=800, k=10,
            threshold=0.25, paper_threshold=50.0, max_epochs=40,
        ),
        # LR on Criteo (high-dimensional sparse; 52M instances make the
        # practical global batch 1M, i.e. ~52 iterations per epoch).
        Workload(
            "lr", "criteo", "admm", workers=100, batch_size=1_000_000,
            lr=5.0, min_local_batch=32, threshold=0.62, paper_threshold=0.46, max_epochs=40,
        ),
        # MobileNet / ResNet50 on Cifar10: GA-SGD only (non-convex),
        # per-worker batches bounded by Lambda memory.
        Workload(
            "mobilenet", "cifar10", "ga_sgd", workers=10, batch_size=128,
            batch_scope="per_worker", lr=0.05, threshold=0.2,
            paper_threshold=0.2, max_epochs=60,
        ),
        Workload(
            "resnet50", "cifar10", "ga_sgd", workers=10, batch_size=32,
            batch_scope="per_worker", lr=0.05, threshold=0.4,
            paper_threshold=0.4, max_epochs=60,
        ),
    ]
}


def get_workload(model: str, dataset: str) -> Workload:
    key = f"{model}/{dataset}"
    try:
        return WORKLOADS[key]
    except KeyError:
        raise ConfigurationError(
            f"no tuned workload {key!r}; known: {sorted(WORKLOADS)}"
        ) from None


def scaled(workload: Workload, **overrides) -> Workload:
    """Copy a workload with overrides (worker count, thresholds...)."""
    return replace(workload, **overrides)
