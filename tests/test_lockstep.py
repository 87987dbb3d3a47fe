"""The stacked lockstep pass against the rank-by-rank reference, bit for bit.

A default BSP run computes its statistics before the engine starts —
all ranks together, one stacked numpy call per minibatch step where the
kernels allow (``repro.substrate.lockstep``) — and then replays that
trace. The reference is the same pass stepped rank by rank through the
base class's ``DistributedAlgorithm.round_payloads``
(:class:`~repro.fuzz.invariants.ReferenceSubstrate`): part (a) compares
the two traces and checks that a replay of the reference reproduces the
default run's ``RunResult``, crashes and flaky storage included (a
replay that does not consume its trace exactly raises at finalize, which
is what holds ``bsp_rounds`` to the pass's control flow).

Part (b) checks the stacked kernels and the shared update
(``apply_merged``) against their per-rank spellings over W in
{1, 3, 64} and b in {1, 7, 50}.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.aggregator import reduce_vectors
from repro.core.config import TrainingConfig
from repro.core.context import JobContext
from repro.core.driver import train
from repro.data.loader import make_shards
from repro.data.synth import generate
from repro.fuzz.invariants import ReferenceSubstrate
from repro.models.linear import LinearSVM, LogisticRegression
from repro.models.nn import MLPClassifier
from repro.models.zoo import get_model_info
from repro.optim.admm import ADMM
from repro.optim.gradient_averaging import GradientAveragingSGD
from repro.optim.model_averaging import ModelAveragingSGD
from repro.substrate import ExactSubstrate, ReplaySubstrate
from repro.substrate.exact import build_ranks
from repro.utils.rng import make_rng


def result_key(result):
    """Every deterministic field of a RunResult, bitwise."""
    return (
        result.duration_s,
        result.cost_total,
        tuple(sorted(result.cost_breakdown.items())),
        result.converged,
        result.final_loss,
        result.epochs,
        result.comm_rounds,
        result.checkpoints,
        result.final_accuracy,
        tuple((p.time_s, p.epoch, p.loss, p.worker) for p in result.history),
        tuple(sorted(result.breakdown.as_dict().items())),
        tuple(sorted(result.events.items())),
    )


def without_meta(trace: dict) -> dict:
    return {key: value for key, value in trace.items() if key != "meta"}


# ---------------------------------------------------------------------------
# (a) whole runs: stacked pass == rank-by-rank reference, trace and RunResult
# ---------------------------------------------------------------------------
HIGGS = dict(model="lr", dataset="higgs", data_scale=5000, seed=20210620)
S3_ALLREDUCE = dict(system="lambdaml", channel="s3", pattern="allreduce")
REDIS_SCATTER = dict(system="lambdaml", channel="redis", pattern="scatterreduce")
PYTORCH = dict(system="pytorch")

CASES = {
    # Dense LR/SVM: the stacked kernels, at W up to 30 (past numpy's
    # shape-dependent summation switch at w > 8).
    "lr-admm-w1-pytorch": dict(HIGGS, algorithm="admm", workers=1, max_epochs=20,
                               loss_threshold=None, **PYTORCH),
    "lr-admm-w3-redis": dict(HIGGS, algorithm="admm", workers=3, lr=0.01, max_epochs=40,
                             loss_threshold=0.68, **REDIS_SCATTER),
    "svm-admm-w12-pytorch": dict(HIGGS, model="svm", algorithm="admm", workers=12,
                                 lr=0.01, max_epochs=20, loss_threshold=None, **PYTORCH),
    "lr-ma-w30-redis": dict(HIGGS, algorithm="ma_sgd", workers=30, max_epochs=3,
                            loss_threshold=None, **REDIS_SCATTER),
    "svm-ma-w3-s3": dict(HIGGS, model="svm", algorithm="ma_sgd", workers=3, lr=0.01,
                         ma_sync_epochs=2, max_epochs=6, loss_threshold=0.48,
                         **S3_ALLREDUCE),
    "lr-ga-w30-s3": dict(HIGGS, algorithm="ga_sgd", workers=30, batch_size=1_050_000,
                         lr=0.5, max_epochs=2, loss_threshold=None, **S3_ALLREDUCE),
    "svm-ga-w12-pytorch": dict(HIGGS, model="svm", algorithm="ga_sgd", workers=12,
                               batch_size=600_000, max_epochs=1.5, loss_threshold=None,
                               **PYTORCH),
    "lr-ga-w3-redis": dict(HIGGS, algorithm="ga_sgd", workers=3, batch_size=250_000,
                           lr=0.05, max_epochs=3, loss_threshold=0.66, **REDIS_SCATTER),
    # Sparse, k-means EM and a neural network: rank by rank in the pass.
    "lr-rcv1-admm-w3-s3": dict(model="lr", dataset="rcv1", data_scale=400,
                               algorithm="admm", workers=3, max_epochs=10,
                               loss_threshold=None, seed=3, **S3_ALLREDUCE),
    "svm-rcv1-ma-w12-pytorch": dict(model="svm", dataset="rcv1", data_scale=400,
                                    algorithm="ma_sgd", workers=12, max_epochs=2,
                                    loss_threshold=None, seed=3, **PYTORCH),
    "kmeans-em-w30-redis": dict(HIGGS, model="kmeans", algorithm="em", k=3, workers=30,
                                max_epochs=3, loss_threshold=None, **REDIS_SCATTER),
    "kmeans-em-w1-pytorch": dict(HIGGS, model="kmeans", algorithm="em", k=5, workers=1,
                                 max_epochs=2, loss_threshold=None, **PYTORCH),
    "mobilenet-ga-w3-s3": dict(model="mobilenet", dataset="cifar10", data_scale=400,
                               algorithm="ga_sgd", workers=3, batch_size=16,
                               batch_scope="per_worker", max_epochs=1.5, lr=0.01,
                               loss_threshold=None, seed=3, **S3_ALLREDUCE),
    "mobilenet-ma-w12-pytorch": dict(model="mobilenet", dataset="cifar10",
                                     data_scale=1000, algorithm="ma_sgd", workers=12,
                                     batch_size=16, batch_scope="per_worker",
                                     max_epochs=1, loss_threshold=None, seed=3, **PYTORCH),
    # GA-SGD's shared step (apply_merged) on the paths that fold past w > 8.
    "lr-rcv1-ga-w12-redis": dict(model="lr", dataset="rcv1", data_scale=400,
                                 algorithm="ga_sgd", workers=12, batch_size=100_000,
                                 lr=2.0, max_epochs=2, loss_threshold=None, seed=3,
                                 **REDIS_SCATTER),
    "mobilenet-ga-w12-s3": dict(model="mobilenet", dataset="cifar10", data_scale=2000,
                                algorithm="ga_sgd", workers=12, batch_size=16,
                                batch_scope="per_worker", lr=0.01, max_epochs=2,
                                loss_threshold=None, seed=3, **S3_ALLREDUCE),
    # The fault plane: a crashed rank resumes from its checkpointed round
    # state, and the run must still consume the trace exactly.
    "lr-ma-w4-crashes": dict(HIGGS, algorithm="ma_sgd", workers=4, batch_size=10_000,
                             lr=0.05, max_epochs=4, loss_threshold=None, seed=3,
                             mttf_s=60.0, **S3_ALLREDUCE),
    "lr-ga-w3-flaky-storage": dict(HIGGS, algorithm="ga_sgd", workers=3,
                                   batch_size=250_000, max_epochs=1, loss_threshold=None,
                                   storage_error_rate=0.05, **REDIS_SCATTER),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_lockstep_run_equals_the_per_rank_run(name):
    config = TrainingConfig(**CASES[name])
    reference = ReferenceSubstrate()
    JobContext(config, substrate=reference)  # attaching computes the trace
    exact = ExactSubstrate()
    JobContext(config, substrate=exact)
    assert without_meta(exact.trace) == without_meta(reference.trace)
    replayed = train(config, substrate=ReplaySubstrate(reference.trace))
    assert result_key(replayed) == result_key(train(config))


def test_the_cases_exercise_what_they_claim():
    configs = {name: TrainingConfig(**kwargs) for name, kwargs in CASES.items()}
    assert {c.workers for c in configs.values()} >= {1, 3, 12, 30}
    assert {c.algorithm for c in configs.values()} >= {"admm", "ma_sgd", "ga_sgd", "em"}
    assert {(c.model, c.dataset) for c in configs.values()
            if c.algorithm == "ga_sgd" and c.workers > 8} >= {("lr", "rcv1"),
                                                              ("mobilenet", "cifar10")}
    assert {(c.platform, c.channel, c.pattern) for c in configs.values()
            if c.platform == "faas"} == {("faas", "s3", "allreduce"),
                                         ("faas", "redis", "scatterreduce")}
    assert any(c.system == "pytorch" for c in configs.values())
    assert any(c.fault_mttf_s for c in configs.values())
    assert any(c.storage_error_rate for c in configs.values())


def test_the_reference_steps_and_applies_rank_by_rank(monkeypatch):
    """The reference substrate never goes through an algorithm's own
    round_payloads or apply_merged: each rank steps on its own
    round_payload and updates on its own apply. The default pass does
    go through GA-SGD's overrides, so both sides are live."""
    config = TrainingConfig(**CASES["mobilenet-ga-w12-s3"])
    real_apply = GradientAveragingSGD.apply
    applies = []

    def override(cls, algos, *args):
        raise AssertionError("went through an override")

    def counted_apply(self, merged):
        applies.append(self)
        real_apply(self, merged)

    with monkeypatch.context() as patch:
        patch.setattr(GradientAveragingSGD, "round_payloads", classmethod(override))
        patch.setattr(GradientAveragingSGD, "apply_merged", classmethod(override))
        patch.setattr(GradientAveragingSGD, "apply", counted_apply)
        reference = ReferenceSubstrate()
        JobContext(config, substrate=reference)
    rounds = reference.trace["ranks"][0]["rounds"]
    assert rounds > 1 and len(applies) == config.workers * rounds

    with monkeypatch.context() as patch:
        patch.setattr(GradientAveragingSGD, "apply_merged", classmethod(override))
        with pytest.raises(AssertionError, match="went through an override"):
            JobContext(config, substrate=ExactSubstrate())


def test_the_initial_model_is_drawn_once_per_run(monkeypatch):
    real_init = MLPClassifier.init_params
    draws = []

    def counted_init(self, rng):
        draws.append(self)
        return real_init(self, rng)

    monkeypatch.setattr(MLPClassifier, "init_params", counted_init)
    config = TrainingConfig(**CASES["mobilenet-ga-w12-s3"])
    JobContext(config, substrate=ExactSubstrate())
    assert config.workers == 12 and len(draws) == 1


def test_crash_case_crashes_and_threshold_cases_stop_early():
    crashed = train(TrainingConfig(**CASES["lr-ma-w4-crashes"]))
    assert crashed.events["crashes"] > 0 and crashed.events["reincarnations"] > 0
    flaky = train(TrainingConfig(**CASES["lr-ga-w3-flaky-storage"]))
    assert flaky.events["storage_retries"] > 0
    for name in ("lr-admm-w3-redis", "svm-ma-w3-s3", "lr-ga-w3-redis"):
        result = train(TrainingConfig(**CASES[name]))
        assert result.converged and result.epochs < CASES[name]["max_epochs"], name


# ---------------------------------------------------------------------------
# (b) the stacked kernels against their per-rank spellings
# ---------------------------------------------------------------------------
WORKERS = (1, 3, 64)
BATCHES = (1, 7, 50)


def _twin_shards(workers: int, batch: int, dataset: str = "higgs"):
    """Two identical shard sets (same data, same generator states)."""
    scale = {"higgs": 5000, "rcv1": 400}[dataset]
    split = generate(dataset, scale=scale, seed=7)
    return [
        make_shards(split, workers, global_batch=workers * batch, seed=7)
        for _ in range(2)
    ]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("batch", BATCHES)
def test_stacked_epoch_batches_are_each_shards_batches(workers, batch):
    stacked, per_rank = _twin_shards(workers, batch)
    assert all(shard.X.base is stacked.X for shard in stacked)
    mine = list(stacked.epoch_batches())
    theirs = [list(shard.epoch_batches()) for shard in per_rank]
    assert len(mine) == per_rank[0].iterations_per_epoch
    for step, (X_batch, y_batch) in enumerate(mine):
        assert X_batch.shape[:2] == y_batch.shape and X_batch.shape[0] == workers
        for rank in range(workers):
            X_rank, y_rank = theirs[rank][step]
            assert np.array_equal(X_batch[rank], X_rank)
            assert np.array_equal(y_batch[rank], y_rank)
    for a, b in zip(stacked, per_rank):
        assert a.rng.bit_generator.state == b.rng.bit_generator.state


@pytest.mark.parametrize("model_cls", [LogisticRegression, LinearSVM])
@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("n_features", [28, 4096])
def test_stacked_gradient_rows_are_per_rank_gradients(model_cls, workers, batch, n_features):
    rng = np.random.default_rng(workers * 1000 + batch)
    model = model_cls(n_features, l2=1e-3)
    assert model.stacks
    X = rng.standard_normal((workers, batch, n_features))
    y = rng.choice(np.array([-1, 1], dtype=np.int8), size=(workers, batch))
    params = rng.standard_normal((workers, n_features)) * 0.3
    grads = model.gradient(params, X, y)
    assert grads.shape == (workers, n_features)
    for rank in range(workers):
        # The per-rank operand is a row run of its own array, as a
        # shard's epoch-gathered copy hands it over.
        own = np.concatenate([X[rank], X[rank]])[:batch]
        assert np.array_equal(grads[rank], model.gradient(params[rank], own, y[rank]))


def _algorithms(algo_cls, shards, **kwargs):
    info = get_model_info("lr", "higgs")
    init = info.factory().init_params(make_rng(3))
    return [algo_cls(info.factory(), shard, init=init, **kwargs) for shard in shards]


ALGORITHMS = {
    "admm": (ADMM, dict(lr=0.3, rho=0.05, scans=2)),
    "ma_sgd": (ModelAveragingSGD, dict(lr=0.3, sync_epochs=2)),
    "ga_sgd": (GradientAveragingSGD, dict(lr=0.3)),
}


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("batch", BATCHES)
def test_round_payloads_are_each_ranks_round_payload(name, workers, batch):
    algo_cls, kwargs = ALGORITHMS[name]
    stacked_shards, per_rank_shards = _twin_shards(workers, batch)
    stacked = _algorithms(algo_cls, stacked_shards, **kwargs)
    per_rank = _algorithms(algo_cls, per_rank_shards, **kwargs)
    rounds = 3 if name != "ga_sgd" else 2 * per_rank_shards[0].iterations_per_epoch + 1
    for _ in range(rounds):
        mine = algo_cls.round_payloads(stacked, stacked_shards)
        theirs = [algo.round_payload() for algo in per_rank]
        assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))
        merged = np.mean(theirs, axis=0)  # any merged vector moves the state on
        algo_cls.apply_merged(stacked, merged)
        for a, b in zip(stacked, per_rank):
            b.apply(merged)
            assert np.array_equal(a.params, b.params)
    for a, b in zip(stacked_shards, per_rank_shards):
        assert a.rng.bit_generator.state == b.rng.bit_generator.state


def test_sparse_data_runs_rank_by_rank():
    stacked_shards, per_rank_shards = _twin_shards(3, 7, dataset="rcv1")
    assert stacked_shards.X is None
    info = get_model_info("lr", "rcv1")
    init = info.factory().init_params(make_rng(3))
    stacked = [ADMM(info.factory(), s, lr=0.3, init=init, scans=1) for s in stacked_shards]
    per_rank = [ADMM(info.factory(), s, lr=0.3, init=init, scans=1) for s in per_rank_shards]
    mine = ADMM.round_payloads(stacked, stacked_shards)
    assert all(np.array_equal(a, b.round_payload()) for a, b in zip(mine, per_rank))


# ---------------------------------------------------------------------------
# (c) the round structure bsp_rounds reads once per worker incarnation
# ---------------------------------------------------------------------------
RCV1 = dict(dataset="rcv1", data_scale=400, seed=3)
STRUCTURE_CASES = {
    "lr-higgs-ga": dict(HIGGS, algorithm="ga_sgd", batch_size=250_000),
    "lr-higgs-ma": dict(HIGGS, algorithm="ma_sgd", ma_sync_epochs=2),
    "svm-higgs-admm": dict(HIGGS, model="svm", algorithm="admm", admm_scans=2),
    "kmeans-higgs-em": dict(HIGGS, model="kmeans", algorithm="em", k=3),
    "lr-rcv1-ga": dict(RCV1, model="lr", algorithm="ga_sgd", batch_size=100_000),
    "svm-rcv1-ma": dict(RCV1, model="svm", algorithm="ma_sgd"),
    "lr-rcv1-admm": dict(RCV1, model="lr", algorithm="admm", admm_scans=1),
    "kmeans-rcv1-em": dict(RCV1, model="kmeans", algorithm="em", k=3),
}
STRUCTURE_ROUNDS = 3


def _structure(stats) -> tuple:
    return (stats.round_work(), stats.eval_work(), stats.epochs_per_round)


@pytest.mark.parametrize("name", sorted(STRUCTURE_CASES))
def test_round_structure_is_constant_across_rounds(name):
    """`bsp_rounds` reads each rank's round and evaluation seconds and its
    epochs per round once per incarnation, before its first round. That is
    sound only while every algorithm and every replay view answers the same
    values after rounds have run as the algorithm did before round one."""
    config = TrainingConfig(**STRUCTURE_CASES[name], workers=3, system="pytorch",
                            max_epochs=4, loss_threshold=None)
    exact = ExactSubstrate()
    ctx = JobContext(config, substrate=exact)

    shards, algorithms = build_ranks(ctx)
    kind = type(algorithms[0])
    before = [_structure(algo) for algo in algorithms]
    assert all(work[0] > 0 for work, _, _ in before)
    for _ in range(STRUCTURE_ROUNDS):
        merged = reduce_vectors(kind.round_payloads(algorithms, shards), kind.reduce)
        kind.apply_merged(algorithms, merged)
        assert [_structure(algo) for algo in algorithms] == before

    replay = ReplaySubstrate(exact.trace)
    assert train(config, substrate=replay).comm_rounds >= 2
    assert [_structure(replay.stats(rank)) for rank in range(config.workers)] == before
