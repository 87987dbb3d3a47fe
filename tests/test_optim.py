"""Unit tests for the distributed optimization algorithms.

Each algorithm is exercised in a *simulated-free* harness: payloads are
reduced with plain numpy, mimicking a perfect synchronous exchange, so
these tests isolate the optimization math from the event engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.loader import make_shards
from repro.data.synth import generate
from repro.errors import ConfigurationError
from repro.models.kmeans import KMeansModel
from repro.models.linear import LogisticRegression
from repro.optim.admm import ADMM
from repro.optim.base import make_algorithm
from repro.optim.em import KMeansEM
from repro.optim.gradient_averaging import GradientAveragingSGD
from repro.optim.local import sgd_epoch
from repro.optim.model_averaging import ModelAveragingSGD
from repro.utils.rng import make_rng

WORKERS = 4
#: The linear models' initial model (what ``initial_model`` draws for them).
INIT = LogisticRegression(28).init_params(make_rng(5))


@pytest.fixture(scope="module")
def higgs_shards():
    split = generate("higgs", seed=11)
    return make_shards(split, WORKERS, global_batch=200, seed=11)


def lockstep(algos, rounds):
    """Drive algorithms through perfect synchronous rounds."""
    for _ in range(rounds):
        payloads = [np.asarray(a.round_payload(), dtype=np.float64) for a in algos]
        if algos[0].reduce == "mean":
            merged = np.mean(payloads, axis=0)
        else:
            merged = np.sum(payloads, axis=0)
        for a in algos:
            a.apply(merged)
    return algos


class TestFactory:
    def test_known_names(self, higgs_shards):
        model = LogisticRegression(28)
        for name in ("ga_sgd", "ma_sgd", "admm"):
            algo = make_algorithm(name, model, higgs_shards[0], lr=0.1, init=INIT)
            assert algo.epochs_per_round > 0

    def test_unknown_name_rejected(self, higgs_shards):
        for name in ("adamw", "ga", "GA-SGD", "kmeans"):
            with pytest.raises(ConfigurationError, match="unknown algorithm"):
                make_algorithm(name, LogisticRegression(28), higgs_shards[0], lr=0.1, init=INIT)


class TestGradientAveraging:
    def test_workers_stay_in_consensus(self, higgs_shards):
        algos = [
            GradientAveragingSGD(LogisticRegression(28), s, lr=0.1, init=INIT)
            for s in higgs_shards
        ]
        lockstep(algos, 30)
        for a in algos[1:]:
            np.testing.assert_allclose(a.params, algos[0].params)

    def test_loss_decreases(self, higgs_shards):
        algos = [
            GradientAveragingSGD(LogisticRegression(28), s, lr=0.1, init=INIT)
            for s in higgs_shards
        ]
        before = np.mean([a.local_loss() for a in algos])
        lockstep(algos, 200)
        after = np.mean([a.local_loss() for a in algos])
        assert after < before

    def test_round_structure(self, higgs_shards):
        algo = GradientAveragingSGD(LogisticRegression(28), higgs_shards[0], lr=0.1, init=INIT)
        assert algo.epochs_per_round == pytest.approx(
            1.0 / higgs_shards[0].iterations_per_epoch
        )
        instances, iterations = algo.round_work()
        assert instances == higgs_shards[0].batch_size
        assert iterations == 1.0


class TestModelAveraging:
    def test_one_round_is_one_epoch(self, higgs_shards):
        algo = ModelAveragingSGD(LogisticRegression(28), higgs_shards[0], lr=0.05, init=INIT)
        assert algo.epochs_per_round == 1.0

    def test_sync_epochs_scale_round_work(self, higgs_shards):
        algo = ModelAveragingSGD(
            LogisticRegression(28), higgs_shards[0], lr=0.05, init=INIT, sync_epochs=3
        )
        instances, _ = algo.round_work()
        assert instances == higgs_shards[0].n_rows * 3

    def test_convergence(self, higgs_shards):
        algos = [
            ModelAveragingSGD(LogisticRegression(28), s, lr=0.05, init=INIT)
            for s in higgs_shards
        ]
        lockstep(algos, 10)
        assert np.mean([a.local_loss() for a in algos]) < 0.69

    def test_invalid_sync_epochs(self, higgs_shards):
        with pytest.raises(ConfigurationError):
            ModelAveragingSGD(
                LogisticRegression(28), higgs_shards[0], lr=0.1, init=INIT, sync_epochs=0
            )


class TestADMM:
    def test_convergence_beats_single_round_of_ma(self, higgs_shards):
        admm = [
            ADMM(LogisticRegression(28, l2=1e-4), s, lr=0.05, init=INIT, scans=10)
            for s in higgs_shards
        ]
        lockstep(admm, 2)
        assert np.mean([a.local_loss() for a in admm]) < 0.68

    def test_epochs_per_round_equals_scans(self, higgs_shards):
        algo = ADMM(LogisticRegression(28), higgs_shards[0], lr=0.05, init=INIT, scans=7)
        assert algo.epochs_per_round == 7.0

    def test_consensus_is_shared(self, higgs_shards):
        algos = [
            ADMM(LogisticRegression(28), s, lr=0.05, init=INIT) for s in higgs_shards
        ]
        lockstep(algos, 2)
        for a in algos[1:]:
            np.testing.assert_allclose(a.params, algos[0].params)

    def test_dual_updates_nonzero(self, higgs_shards):
        algos = [
            ADMM(LogisticRegression(28), s, lr=0.05, init=INIT) for s in higgs_shards
        ]
        lockstep(algos, 1)
        assert any(np.linalg.norm(a._u) > 0 for a in algos)

    def test_invalid_hyperparams(self, higgs_shards):
        with pytest.raises(ConfigurationError):
            ADMM(LogisticRegression(28), higgs_shards[0], lr=0.1, init=INIT, rho=0.0)
        with pytest.raises(ConfigurationError):
            ADMM(LogisticRegression(28), higgs_shards[0], lr=0.1, init=INIT, scans=0)


class TestKMeansEM:
    @staticmethod
    def _shared_init(shards, k, seed=5):
        model = KMeansModel(28, k=k)
        init = model.init_centroids(shards[0].X, rng=seed)
        return [
            KMeansEM(KMeansModel(28, k=k), s, init=init)
            for s in shards
        ]

    def test_loss_monotone_under_lockstep(self, higgs_shards):
        algos = self._shared_init(higgs_shards, k=8)
        losses = []
        for _ in range(6):
            lockstep(algos, 1)
            losses.append(algos[0].local_loss())
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-9

    def test_divergent_inits_break_monotonicity_guard(self, higgs_shards):
        """Without a broadcast initialisation, shards disagree — the
        exact bug the driver's shared init exists to prevent."""
        model = KMeansModel(28, k=8)
        algos = [KMeansEM(model, s, init=model.init_centroids(s.X, rng=5)) for s in higgs_shards]
        inits = [a.params for a in algos]
        assert any(not np.allclose(inits[0], other) for other in inits[1:])

    def test_sum_reduction(self, higgs_shards):
        algo = self._shared_init(higgs_shards, k=4)[0]
        assert algo.reduce == "sum"

    def test_eval_is_free(self, higgs_shards):
        algo = self._shared_init(higgs_shards, k=4)[0]
        assert algo.eval_work() == (0.0, 0.0)

    def test_centroids_shared_across_workers(self, higgs_shards):
        algos = self._shared_init(higgs_shards, k=4)
        lockstep(algos, 3)
        for a in algos[1:]:
            np.testing.assert_allclose(a.params, algos[0].params)


class TestLocalSGD:
    def test_sgd_epoch_does_not_mutate_input(self, higgs_shards):
        model = LogisticRegression(28)
        params = np.ones(28)
        kept = params.copy()
        sgd_epoch(model, params, higgs_shards[0], lr=0.1)
        np.testing.assert_allclose(params, kept)

    def test_extra_grad_applied(self, higgs_shards):
        model = LogisticRegression(28)
        params = np.zeros(28)
        anchor = np.full(28, 5.0)
        pulled = sgd_epoch(
            model, params, higgs_shards[0], lr=0.1,
            extra_grad=lambda x: 1.0 * (x - anchor),
        )
        plain = sgd_epoch(model, params, higgs_shards[0], lr=0.1)
        # The proximal pull toward `anchor` must move params toward it.
        assert np.linalg.norm(pulled - anchor) < np.linalg.norm(plain - anchor)
