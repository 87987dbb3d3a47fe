"""K-means trained by distributed expectation maximisation.

One EM iteration is one epoch (a full pass over the data, §2.1.2).
Workers compute local sufficient statistics (per-cluster sums and
counts); these are aggregated through the communication channel exactly
like gradients, after which every worker recomputes the centroids.

The reported loss is the *relative quantization error*: total squared
distance to the closest centroid divided by the total squared norm of
the data. It is scale- and dimension-free (1.0 = centroids at the
origin explain nothing; ~0.12 on the latent-cluster dense generators
when k matches the structure), which lets experiments state thresholds
that are comparable across datasets.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import make_rng


def _sq_norm(X) -> float:
    """Total squared norm of the rows of a dense array or CSR matrix."""
    if isinstance(X, np.ndarray):
        return float(np.einsum("ij,ij->", X, X))
    return float(X.multiply(X).sum())


class KMeansModel:
    """State and math for distributed k-means."""

    def __init__(self, n_features: int, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.n_features = n_features
        self.k = k
        self.n_params = k * n_features
        self.dtype = np.dtype(np.float64)

    # -- initialisation -----------------------------------------------------
    def init_centroids(self, X, rng: np.random.Generator | int = 0) -> np.ndarray:
        """Sample k distinct rows as initial centroids (k-means style)."""
        rng = make_rng(rng)
        n = X.shape[0]
        idx = rng.choice(n, size=min(self.k, n), replace=False)
        rows = X[idx]
        if not isinstance(rows, np.ndarray):  # a CSR slice
            rows = rows.toarray()
        centroids = np.asarray(rows, dtype=np.float64)
        if centroids.shape[0] < self.k:
            extra = rng.standard_normal((self.k - centroids.shape[0], self.n_features))
            centroids = np.vstack([centroids, extra])
        return centroids

    # -- E/M steps -----------------------------------------------------------
    def assign(self, centroids: np.ndarray, X) -> tuple[np.ndarray, np.ndarray]:
        """Nearest-centroid labels and squared distances for each row."""
        x_sq = (
            np.einsum("ij,ij->i", X, X)
            if isinstance(X, np.ndarray)
            else np.asarray(X.multiply(X).sum(axis=1)).ravel()
        )
        c_sq = np.einsum("ij,ij->i", centroids, centroids)
        cross = np.asarray(X @ centroids.T)
        d2 = x_sq[:, None] - 2.0 * cross + c_sq[None, :]
        labels = np.argmin(d2, axis=1)
        best = np.maximum(d2[np.arange(X.shape[0]), labels], 0.0)
        return labels, best

    def local_stats(self, centroids: np.ndarray, X) -> dict:
        """Sufficient statistics of one shard for a single EM step."""
        labels, d2 = self.assign(centroids, X)
        k, d = self.k, self.n_features
        sums = np.zeros((k, d))
        for cluster in range(k):
            mask = labels == cluster
            if mask.any():
                sums[cluster] = np.asarray(X[mask].sum(axis=0)).ravel()
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        return {
            "sums": sums,
            "counts": counts,
            "sq_dist": float(d2.sum()),
            "sq_norm": _sq_norm(X),
            "n": float(X.shape[0]),
        }

    def update(self, centroids: np.ndarray, merged: dict) -> np.ndarray:
        """New centroids from merged stats; empty clusters keep position."""
        counts = merged["counts"]
        new = centroids.copy()
        nonempty = counts > 0
        new[nonempty] = merged["sums"][nonempty] / counts[nonempty, None]
        return new

    # -- loss -----------------------------------------------------------------
    def loss_from_stats(self, merged: dict) -> float:
        if merged["n"] <= 0 or merged["sq_norm"] <= 0:
            return float("inf")
        return merged["sq_dist"] / merged["sq_norm"]

    def loss(self, centroids: np.ndarray, X) -> float:
        _, d2 = self.assign(centroids, X)
        sq_norm = _sq_norm(X)
        if sq_norm <= 0:
            return float("inf")
        return float(d2.sum() / sq_norm)

    # -- flat-vector plumbing for the communication layer ----------------------
    def flatten(self, centroids: np.ndarray) -> np.ndarray:
        return centroids.reshape(-1)

    def unflatten(self, vec: np.ndarray) -> np.ndarray:
        return vec.reshape(self.k, self.n_features)

    def stats_to_vector(self, stats: dict) -> np.ndarray:
        return np.concatenate(
            [
                stats["sums"].reshape(-1),
                stats["counts"],
                [stats["sq_dist"], stats["sq_norm"], stats["n"]],
            ]
        )

    def vector_to_stats(self, vec: np.ndarray) -> dict:
        k, d = self.k, self.n_features
        return {
            "sums": vec[: k * d].reshape(k, d),
            "counts": vec[k * d : k * d + k],
            "sq_dist": float(vec[k * d + k]),
            "sq_norm": float(vec[k * d + k + 1]),
            "n": float(vec[k * d + k + 2]),
        }
