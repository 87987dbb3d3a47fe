"""Synthetic stand-ins for the paper's datasets.

Each generator produces data with the same *statistical shape* as the
original (dimensionality, sparsity, class balance, degree of
separability) so that optimization algorithms exhibit the paper's
relative behaviour: Higgs-like data is noisy (LR plateaus near 0.6 log
loss), RCV1-like data is nearly separable (SVM hinge loss ~0.05),
cifar10-like data has 10 Gaussian-ish clusters reachable by a small
neural network, YFCC100M/Criteo are imbalanced.

Generated splits are cached per (name, scale, seed): experiments
re-create the same dataset many times while sweeping system knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.config import stable_hash
from repro.data.datasets import DatasetSpec, get_spec
from repro.utils.rng import make_rng

VALIDATION_FRACTION = 0.1  # paper: 90 % train / 10 % validation

# Version tag mixed into each dataset's RNG stream. Historically the
# stream depended on builtin hash(name), i.e. on PYTHONHASHSEED, so each
# process trained on a *different draw* and knife-edge convergence tests
# passed or failed by luck. The draws are arbitrary by construction;
# these are the pinned draws the workload registry's thresholds are
# validated against. Bumping an entry re-rolls that synthetic dataset —
# re-validate tests/test_workload_convergence.py and
# tests/test_paper_claims.py if you do.
DATA_STREAM_VERSION = {
    "higgs": 2,
    "rcv1": 1,
    "cifar10": 1,
    "yfcc100m": 1,
    "criteo": 1,
}


def _balance_offset(margin: np.ndarray, positive_fraction: float, noise: float) -> float:
    """Offset b such that E[sigmoid((margin - b)/noise)] = positive_fraction.

    A plain quantile is biased once label noise smooths the decision:
    rows far below the cut still flip positive with non-trivial
    probability, so e.g. a 7.5% quantile cut yields ~28% positives.
    The expectation is monotone in b, so bisection is exact.
    """
    noise = max(noise, 1e-6)
    lo = float(margin.min()) - 20.0 * noise
    hi = float(margin.max()) + 20.0 * noise
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        mean_prob = float(np.mean(1.0 / (1.0 + np.exp(-(margin - mid) / noise))))
        if mean_prob > positive_fraction:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TrainValSplit:
    """Physical train/validation arrays for one dataset."""

    name: str
    X_train: object  # ndarray or scipy CSR
    y_train: np.ndarray
    X_val: object
    y_val: np.ndarray
    spec: DatasetSpec

    @property
    def n_train(self) -> int:
        return self.X_train.shape[0]

    @property
    def n_features(self) -> int:
        return self.X_train.shape[1]


# Latent cluster structure of the dense generators. Real Higgs/YFCC
# feature spaces are clusterable (the paper runs k-means on both); we
# plant N_LATENT_CLUSTERS Gaussian modes whose within-cluster spread
# yields a relative quantization error of ~0.12 when k >= latent k, so
# the paper's k-means thresholds are meaningful stopping points.
N_LATENT_CLUSTERS = 8
WITHIN_CLUSTER_STD = 0.35


def _dense_binary(spec: DatasetSpec, n: int, rng: np.random.Generator) -> tuple:
    """Dense binary classification with tunable label noise.

    Rows are drawn from a mixture of latent Gaussian clusters (total
    variance normalised to ~1 per feature); labels follow a logistic
    model y ~ Bernoulli(sigmoid(margin/noise)), so higher `spec.noise`
    means a higher Bayes error (Higgs-like), lower means nearly
    separable.
    """
    dtype = np.dtype(spec.dtype)
    d = spec.n_features
    spread = np.sqrt(max(0.0, 1.0 - WITHIN_CLUSTER_STD**2))
    centers = rng.standard_normal((N_LATENT_CLUSTERS, d)) * spread
    assignment = rng.integers(0, N_LATENT_CLUSTERS, size=n)
    X_iso = centers[assignment] + rng.standard_normal((n, d)) * WITHIN_CLUSTER_STD
    # The label signal is defined on the isotropic representation, then
    # the observed features are anisotropically rescaled: learning must
    # recover weight mass along the shrunken directions, which is what
    # makes SGD convergence take several epochs (see DatasetSpec).
    w_true = rng.standard_normal(d) / np.sqrt(d)
    margin = X_iso @ w_true
    offset = _balance_offset(margin, spec.positive_fraction, spec.noise)
    if spec.condition > 1.0:
        quarter_log = np.log(spec.condition) / 4.0
        scales = np.exp(np.linspace(-quarter_log, quarter_log, d))
        scales = rng.permutation(scales)
        X = (X_iso * scales).astype(dtype)
    else:
        X = X_iso.astype(dtype)
    if spec.row_normalize:
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        X = (X / norms).astype(dtype)
    logits = (margin - offset) / max(spec.noise, 1e-6)
    prob = 1.0 / (1.0 + np.exp(-logits))
    y = (rng.random(n) < prob).astype(np.int8)
    return X, np.where(y == 1, 1, -1).astype(np.int8)


def _sparse_binary(spec: DatasetSpec, n: int, rng: np.random.Generator) -> tuple:
    """Sparse TF-IDF-like binary data (RCV1 / Criteo families).

    The one place a CSR matrix is built, so scipy loads here: a process
    that trains on dense data never imports it.
    """
    from scipy import sparse

    d = spec.n_features
    nnz = spec.nnz_per_row
    # Feature popularity follows a Zipf-ish law like text/CTR data.
    popularity = 1.0 / np.arange(1, d + 1)
    popularity /= popularity.sum()
    cols = rng.choice(d, size=(n, nnz), p=popularity)
    vals = np.abs(rng.standard_normal((n, nnz))) * 0.5 + 0.1
    rows = np.repeat(np.arange(n), nnz)
    X = sparse.csr_matrix(
        (vals.ravel(), (rows, cols.ravel())), shape=(n, d), dtype=np.float64
    )
    # Normalise rows like TF-IDF vectors.
    row_norms = np.sqrt(X.multiply(X).sum(axis=1)).A.ravel()
    row_norms[row_norms == 0] = 1.0
    X = sparse.diags(1.0 / row_norms) @ X
    w_true = rng.standard_normal(d)
    margin = np.asarray(X @ w_true).ravel()
    offset = _balance_offset(margin, spec.positive_fraction, spec.noise)
    logits = (margin - offset) / max(spec.noise, 1e-6)
    prob = 1.0 / (1.0 + np.exp(-logits))
    y = (rng.random(n) < prob).astype(np.int8)
    return X.tocsr(), np.where(y == 1, 1, -1).astype(np.int8)


def _image_like(spec: DatasetSpec, n: int, rng: np.random.Generator) -> tuple:
    """10-class image-like data: anisotropic Gaussian blobs + noise.

    The blobs live on a low-dimensional manifold inside the 3072-dim
    pixel space, which makes linear models mediocre but lets a small
    neural network reach low cross-entropy — mirroring why the paper
    needs MobileNet/ResNet rather than LR on Cifar10.
    """
    dtype = np.dtype(spec.dtype)
    d = spec.n_features
    k = spec.n_classes
    latent_dim = 32
    # Class prototypes in latent space, projected up to pixel space.
    prototypes = rng.standard_normal((k, latent_dim)) * 2.2
    projection = rng.standard_normal((latent_dim, d)).astype(dtype) / np.sqrt(latent_dim)
    y = rng.integers(0, k, size=n)
    latent = prototypes[y] + rng.standard_normal((n, latent_dim)) * spec.noise
    X = latent.astype(dtype) @ projection
    X += rng.standard_normal((n, d)).astype(dtype) * 0.25
    # 1% label noise sets a non-zero cross-entropy floor, so reaching
    # the paper's 0.2 threshold requires both fitting and calibration.
    flips = rng.random(n) < 0.01
    y[flips] = rng.integers(0, k, size=int(flips.sum()))
    return X.astype(dtype), y.astype(np.int64)


_FAMILIES = {
    "higgs": _dense_binary,
    "rcv1": _sparse_binary,
    "cifar10": _image_like,
    "yfcc100m": _dense_binary,
    "criteo": _sparse_binary,
}


def generate(name: str, scale: int | None = None, seed: int = 0) -> TrainValSplit:
    """Generate (and cache) the physical train/val split for `name`.

    `scale` divides the paper's instance count; None uses the spec
    default. The split is deterministic in (name, scale, seed), and the
    cache is keyed by those values, not by how a call spells them: every
    spelling of one split returns the same object. Its arrays are
    read-only, since every caller shares them.
    """
    spec = get_spec(name)
    return _generate(name, spec.default_scale if scale is None else scale, seed)


@lru_cache(maxsize=32)
def _generate(name: str, scale: int, seed: int) -> TrainValSplit:
    spec = get_spec(name)
    # stable_hash, not hash(): dataset *content* must not depend on the
    # process's PYTHONHASHSEED (engine determinism is only as good as
    # the reproducibility of the data feeding it).
    version = DATA_STREAM_VERSION.get(name, 1)
    rng = make_rng(seed + stable_hash(f"{name}#{version}") % 10_000)
    n = spec.physical_instances(scale)
    family = _FAMILIES[spec.name]
    X, y = family(spec, n, rng)

    n_val = max(16, int(n * VALIDATION_FRACTION))
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    return TrainValSplit(
        name=name,
        X_train=_read_only(X[train_idx]),
        y_train=_read_only(y[train_idx]),
        X_val=_read_only(X[val_idx]),
        y_val=_read_only(y[val_idx]),
        spec=spec,
    )


def _read_only(X):
    """`X` with its arrays (a CSR matrix's three) made read-only."""
    for array in (X,) if isinstance(X, np.ndarray) else (X.data, X.indices, X.indptr):
        array.flags.writeable = False
    return X
