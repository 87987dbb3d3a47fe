"""The lockstep pass against the per-rank path it replaced, bit for bit.

A default BSP run computes its statistics before the engine starts —
all ranks together, one stacked numpy call per minibatch step where the
kernels allow (``repro.substrate.lockstep``) — and then replays that
trace. The oracle is :class:`PerRankSubstrate`: each rank's numpy runs
inside the engine, one call at a time, and a crash restores a deep copy.
Its trace is assembled here the way the in-engine recorder used to
assemble it, so both the traces and the ``RunResult`` s are compared.

Part (b) checks the stacked kernels themselves against their per-rank
spellings over W in {1, 3, 64} and b in {1, 7, 50}.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.core.driver import train
from repro.data.loader import make_shards
from repro.data.synth import generate
from repro.models.linear import LinearSVM, LogisticRegression
from repro.models.zoo import get_model_info
from repro.optim.admm import ADMM
from repro.optim.gradient_averaging import GradientAveragingSGD
from repro.optim.model_averaging import ModelAveragingSGD
from repro.substrate import ExactSubstrate, PerRankSubstrate
from repro.substrate.base import TimedView
from repro.substrate.traces import make_trace, rank_record


# ---------------------------------------------------------------------------
# The oracle: the per-rank path, recording its trace inside the engine
# ---------------------------------------------------------------------------
class _LoggedView(TimedView):
    """A per-rank view that also logs every local loss it hands out."""

    __slots__ = ("_log",)

    def __init__(self, algo, substrate, log: list) -> None:
        super().__init__(algo, substrate)
        object.__setattr__(self, "_log", log)

    def local_loss(self) -> float:
        loss = super().local_loss()
        self._log.append(loss)
        return loss


class PerRankRecorder(PerRankSubstrate):
    """Per-rank statistics, with the trace a recording of them makes.

    Crash recovery rewinds a rank's loss log with its algorithm, so a
    faulted run logs exactly what a fault-free one does.
    """

    def _build(self, ctx) -> None:
        super()._build(ctx)
        self.logs = [[] for _ in self.algorithms]
        self._views = [
            _LoggedView(algo, self, log) for algo, log in zip(self.algorithms, self.logs)
        ]

    def snapshot_rank(self, rank: int):
        return super().snapshot_rank(rank), len(self.logs[rank])

    def restore_rank(self, rank: int, state) -> None:
        algo_state, logged = state
        super().restore_rank(rank, algo_state)
        del self.logs[rank][logged:]
        self._views[rank] = _LoggedView(self.algorithms[rank], self, self.logs[rank])

    def finalize(self, ctx, result, outcomes) -> None:
        by_rank = {outcome.rank: outcome for outcome in outcomes}
        assert sorted(by_rank) == list(range(ctx.config.workers))
        ranks = [
            rank_record(algo, log, by_rank[rank].rounds, by_rank[rank].epochs,
                        by_rank[rank].final_loss)
            for rank, (algo, log) in enumerate(zip(self.algorithms, self.logs))
        ]
        self.trace = make_trace(ctx.config, self.algorithms[0].reduce, ranks,
                                result.final_accuracy, self.compute_seconds)


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
# (a) whole runs: lockstep + replay == per-rank, trace and RunResult
# ---------------------------------------------------------------------------
HIGGS = dict(model="lr", dataset="higgs", data_scale=5000, seed=20210620)
S3_ALLREDUCE = dict(system="lambdaml", channel="s3", pattern="allreduce")
REDIS_SCATTER = dict(system="lambdaml", channel="redis", pattern="scatterreduce")
PYTORCH = dict(system="pytorch")

CASES = {
    # Dense LR/SVM: the stacked kernels. W crosses the ScatterReduce
    # chunking boundary (W > d = 28 gives empty chunks) and the name-sort
    # one ("worker-10" < "worker-2").
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
                               batch_scope="per_worker", max_epochs=0.5,
                               loss_threshold=None, seed=3, **S3_ALLREDUCE),
    "mobilenet-ma-w12-pytorch": dict(model="mobilenet", dataset="cifar10",
                                     data_scale=1000, algorithm="ma_sgd", workers=12,
                                     batch_size=16, batch_scope="per_worker",
                                     max_epochs=1, loss_threshold=None, seed=3, **PYTORCH),
    # The fault plane: crash rewinds restore replay cursors on one side
    # and deep-copied algorithms on the other.
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
    oracle = PerRankRecorder()
    expected = train(config, substrate=oracle)
    exact = ExactSubstrate()
    got = train(config, substrate=exact)
    assert without_meta(exact.trace) == without_meta(oracle.trace)
    assert result_key(got) == result_key(expected)
    # The default substrate is the same computation.
    assert result_key(train(config)) == result_key(expected)


def test_the_cases_exercise_what_they_claim():
    configs = {name: TrainingConfig(**kwargs) for name, kwargs in CASES.items()}
    assert {c.workers for c in configs.values()} >= {1, 3, 12, 30}
    assert {c.algorithm for c in configs.values()} >= {"admm", "ma_sgd", "ga_sgd", "em"}
    assert {(c.platform, c.channel, c.pattern) for c in configs.values()
            if c.platform == "faas"} == {("faas", "s3", "allreduce"),
                                         ("faas", "redis", "scatterreduce")}
    assert any(c.system == "pytorch" for c in configs.values())
    assert any(c.fault_mttf_s for c in configs.values())
    assert any(c.storage_error_rate for c in configs.values())


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
    return [algo_cls(info.factory(), shard, seed=3, **kwargs) for shard in shards]


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
        for a, b in zip(stacked, per_rank):
            a.apply(merged)
            b.apply(merged)
            assert np.array_equal(a.params, b.params)
    for a, b in zip(stacked_shards, per_rank_shards):
        assert a.rng.bit_generator.state == b.rng.bit_generator.state


def test_sparse_data_runs_rank_by_rank():
    stacked_shards, per_rank_shards = _twin_shards(3, 7, dataset="rcv1")
    assert stacked_shards.X is None
    info = get_model_info("lr", "rcv1")
    stacked = [ADMM(info.factory(), s, lr=0.3, seed=3, scans=1) for s in stacked_shards]
    per_rank = [ADMM(info.factory(), s, lr=0.3, seed=3, scans=1) for s in per_rank_shards]
    mine = ADMM.round_payloads(stacked, stacked_shards)
    assert all(np.array_equal(a, b.round_payload()) for a, b in zip(mine, per_rank))
