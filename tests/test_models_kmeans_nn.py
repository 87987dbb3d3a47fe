"""Unit + property tests for k-means and the MLP surrogate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.models.kmeans import KMeansModel
from repro.models.nn import MLPClassifier


def _blobs(rng, n=300, d=5, k=3, spread=4.0):
    centers = rng.standard_normal((k, d)) * spread
    labels = rng.integers(0, k, n)
    X = centers[labels] + rng.standard_normal((n, d)) * 0.3
    return X, labels


class TestKMeans:
    def test_em_monotonically_decreases_loss(self, rng):
        X, _ = _blobs(rng)
        model = KMeansModel(X.shape[1], k=3)
        centroids = model.init_centroids(X, rng)
        losses = []
        for _ in range(10):
            stats = model.local_stats(centroids, X)
            losses.append(model.loss_from_stats(stats))
            centroids = model.update(centroids, stats)
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-9

    def test_distributed_stats_equal_centralised(self, rng):
        X, _ = _blobs(rng, n=200)
        model = KMeansModel(X.shape[1], k=3)
        centroids = model.init_centroids(X, rng)
        full = model.local_stats(centroids, X)
        part1 = model.local_stats(centroids, X[:100])
        part2 = model.local_stats(centroids, X[100:])
        # The sum-reduce KMeansEM ships is the merge: statistics are additive.
        merged = {name: part1[name] + part2[name] for name in part1}
        np.testing.assert_allclose(merged["sums"], full["sums"])
        np.testing.assert_allclose(merged["counts"], full["counts"])
        assert merged["sq_dist"] == pytest.approx(full["sq_dist"])
        assert merged["sq_norm"] == pytest.approx(full["sq_norm"])

    def test_stats_vector_roundtrip(self, rng):
        X, _ = _blobs(rng, n=50)
        model = KMeansModel(X.shape[1], k=3)
        centroids = model.init_centroids(X, rng)
        stats = model.local_stats(centroids, X)
        recovered = model.vector_to_stats(model.stats_to_vector(stats))
        np.testing.assert_allclose(recovered["sums"], stats["sums"])
        np.testing.assert_allclose(recovered["counts"], stats["counts"])
        assert recovered["n"] == pytest.approx(stats["n"])

    def test_relative_error_bounded(self, rng):
        X, _ = _blobs(rng)
        model = KMeansModel(X.shape[1], k=3)
        centroids = model.init_centroids(X, rng)
        loss = model.loss(centroids, X)
        assert 0.0 <= loss

    def test_good_clustering_on_blobs(self, rng):
        X, _ = _blobs(rng, spread=8.0)
        model = KMeansModel(X.shape[1], k=3)
        centroids = model.init_centroids(X, rng)
        for _ in range(15):
            stats = model.local_stats(centroids, X)
            centroids = model.update(centroids, stats)
        assert model.loss(centroids, X) < 0.05

    def test_sparse_input(self, rng):
        X, _ = _blobs(rng, n=100)
        Xs = sparse.csr_matrix(np.abs(X))
        model = KMeansModel(X.shape[1], k=3)
        centroids = model.init_centroids(Xs, rng)
        stats = model.local_stats(centroids, Xs)
        assert stats["counts"].sum() == 100

    def test_empty_cluster_keeps_centroid(self, rng):
        X = np.zeros((10, 2))
        model = KMeansModel(2, k=3)
        centroids = np.array([[0.0, 0.0], [100.0, 100.0], [200.0, 200.0]])
        stats = model.local_stats(centroids, X)
        updated = model.update(centroids, stats)
        np.testing.assert_allclose(updated[1], centroids[1])
        np.testing.assert_allclose(updated[2], centroids[2])

    def test_flatten_roundtrip(self, rng):
        model = KMeansModel(4, k=2)
        centroids = rng.standard_normal((2, 4))
        np.testing.assert_allclose(model.unflatten(model.flatten(centroids)), centroids)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            KMeansModel(4, k=0)


class TestMLP:
    def test_param_count(self):
        model = MLPClassifier(10, (8,), 3)
        assert model.n_params == 10 * 8 + 8 + 8 * 3 + 3

    def test_gradient_matches_finite_differences(self, rng):
        model = MLPClassifier(5, (4,), 3)
        params = model.init_params(rng).astype(np.float64)
        X = rng.standard_normal((12, 5)).astype(np.float32)
        y = rng.integers(0, 3, 12)
        _, grad = model.loss_and_gradient(params.astype(np.float32), X, y)
        eps = 1e-3
        checked = 0
        for j in range(0, model.n_params, 7):
            delta = np.zeros(model.n_params, dtype=np.float32)
            delta[j] = eps
            up = model.loss((params + delta).astype(np.float32), X, y)
            down = model.loss((params - delta).astype(np.float32), X, y)
            numeric = (up - down) / (2 * eps)
            assert grad[j] == pytest.approx(numeric, rel=0.05, abs=5e-3)
            checked += 1
        assert checked > 5

    def test_training_reduces_loss(self, rng):
        model = MLPClassifier(6, (16,), 4)
        centers = rng.standard_normal((4, 6)) * 3
        y = rng.integers(0, 4, 256)
        X = (centers[y] + rng.standard_normal((256, 6)) * 0.3).astype(np.float32)
        params = model.init_params(rng)
        first = model.loss(params, X, y)
        for _ in range(120):
            _, grad = model.loss_and_gradient(params, X, y)
            params = params - (0.5 * grad).astype(np.float32)
        assert model.loss(params, X, y) < first / 4

    def test_predict_shapes(self, rng):
        model = MLPClassifier(5, (4,), 3)
        params = model.init_params(rng)
        X = rng.standard_normal((7, 5)).astype(np.float32)
        assert model.predict(params, X).shape == (7,)

    def test_invalid_classes_rejected(self):
        with pytest.raises(ValueError):
            MLPClassifier(5, (4,), 1)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    k=st.integers(min_value=1, max_value=5),
)
def test_property_kmeans_counts_conserved(seed, k):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((50, 4))
    model = KMeansModel(4, k=k)
    centroids = model.init_centroids(X, rng)
    stats = model.local_stats(centroids, X)
    assert stats["counts"].sum() == pytest.approx(50)
    assert stats["sq_dist"] >= 0
    # Total mass is conserved: sum of cluster sums equals column sums.
    np.testing.assert_allclose(stats["sums"].sum(axis=0), X.sum(axis=0), atol=1e-8)
