"""Dataset registry.

Each entry carries two layers of information:

* the paper's *logical* metadata (Figure 6: on-disk size, number of
  instances, number of features) used by the simulator for loading
  time, communication sizing and compute-time accounting; and
* parameters of the *physical* synthetic stand-in we actually train on
  (scaled-down instance count, sparsity, noise level), chosen so that
  the paper's loss thresholds are meaningful stopping points.

The physical data is 1/`default_scale` of the logical instance count;
batch sizes are scaled by the same factor so iteration counts per epoch
match the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

MB = 1024 * 1024


@dataclass(frozen=True)
class DatasetSpec:
    """Logical + generator metadata for one benchmark dataset."""

    name: str
    size_mb: float  # Figure 6 on-disk size
    n_instances: int  # Figure 6 instance count (logical)
    n_features: int
    n_classes: int  # 2 for binary tasks; 10 for cifar10-like
    sparse: bool = False
    nnz_per_row: int = 0  # only for sparse datasets
    default_scale: int = 100  # physical = logical / default_scale
    noise: float = 1.0  # label-noise temperature for the generator
    positive_fraction: float = 0.5  # class balance for binary tasks
    dtype: str = "float64"
    # Normalise rows to unit L2 norm (deep-feature datasets like
    # YFCC100M-HNfc6 behave like direction vectors; without this, raw
    # 4096-dim Gaussian rows make first-order methods diverge at any
    # practical learning rate).
    row_normalize: bool = False
    # Feature-scale spread for dense generators: the per-feature scales
    # span [1/c^(1/4), c^(1/4)], giving the logistic Hessian a condition
    # number of roughly sqrt(c)..c. Real tabular data (Higgs) is
    # ill-conditioned, which is what makes plain SGD need several
    # epochs while ADMM converges in a round or two.
    condition: float = 1.0

    @property
    def size_bytes(self) -> int:
        return int(self.size_mb * MB)

    def physical_instances(self, scale: int | None = None) -> int:
        scale = self.default_scale if scale is None else scale
        return max(64, self.n_instances // scale)

    def partition_bytes(self, workers: int) -> int:
        """Logical bytes one of `workers` loads from S3."""
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        return self.size_bytes // workers


DATASETS: dict[str, DatasetSpec] = {
    # Monte-Carlo particle physics: dense, low-dimensional, noisy labels.
    # noise=1.1 puts the optimal validation log-loss near 0.63 with
    # ~64% accuracy, so the paper's 0.66/0.68 LR thresholds and 0.48
    # squared-hinge threshold are reachable but non-trivial.
    "higgs": DatasetSpec(
        name="higgs",
        size_mb=8 * 1024,
        n_instances=11_000_000,
        n_features=28,
        n_classes=2,
        default_scale=100,
        noise=1.1,
        condition=64.0,
    ),
    # Newswire TF-IDF: high-dimensional sparse, nearly separable.
    "rcv1": DatasetSpec(
        name="rcv1",
        size_mb=1.2 * 1024,
        n_instances=697_000,
        n_features=47_236,
        n_classes=2,
        sparse=True,
        nnz_per_row=75,
        default_scale=20,
        noise=0.25,
    ),
    # Small images, 10 classes; substrate for the MobileNet/ResNet
    # surrogates. Figure 6 lists the feature count as "1K"; physically
    # we generate 32x32x3 = 3072-dim rows.
    "cifar10": DatasetSpec(
        name="cifar10",
        size_mb=220,
        n_instances=60_000,
        n_features=3_072,
        n_classes=10,
        default_scale=20,
        noise=1.8,
        dtype="float32",
    ),
    # YFCC100M-HNfc6 deep features; binary "animal" task, imbalanced
    # (~300 K positives out of the 4 M sample the paper uses).
    "yfcc100m": DatasetSpec(
        name="yfcc100m",
        size_mb=110 * 1024,
        n_instances=4_000_000,
        n_features=4_096,
        n_classes=2,
        default_scale=500,
        noise=1.2,
        positive_fraction=0.075,
        dtype="float32",
        condition=16.0,
        row_normalize=True,
    ),
    # Click-through-rate prediction: extremely sparse and imbalanced.
    "criteo": DatasetSpec(
        name="criteo",
        size_mb=30 * 1024,
        n_instances=52_000_000,
        n_features=1_000_000,
        n_classes=2,
        sparse=True,
        nnz_per_row=39,
        default_scale=2000,
        noise=0.8,
        positive_fraction=0.25,
    ),
}


def get_spec(name: str) -> DatasetSpec:
    try:
        return DATASETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown dataset {name!r}; known: {sorted(DATASETS)}"
        ) from None
