"""The minibatch step yields the parent's bits from cheaper spellings.

``Shard.epoch_batches`` gathers the shuffled shard once and cuts raw-CSR
row runs (``CsrRows``) or dense views from it, ``_sigmoid`` selects
between its two branches instead of gathering and scattering, and the
SGD / ADMM updates work in place on arrays they own. Each spelling is
checked here, bit for bit, against the straightforward one it replaced,
which lives on in this file as the oracle.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from scipy import sparse

from repro.core.config import TrainingConfig
from repro.core.driver import train
from repro.data.loader import CsrRows, Shard, make_shards
from repro.data.synth import generate
from repro.models.linear import LinearSVM, LogisticRegression, _sigmoid
from repro.optim.admm import ADMM
from repro.optim.local import sgd_epoch
from repro.optim.model_averaging import ModelAveragingSGD
from repro.utils.rng import make_rng


# ---------------------------------------------------------------------------
# Oracles: the per-batch / masked / out-of-place spellings
# ---------------------------------------------------------------------------
def per_batch_epoch(shard: Shard):
    """One fancy-indexed batch at a time (scipy objects for CSR data)."""
    order = shard.rng.permutation(shard.n_rows)
    for start in range(0, shard.n_rows, shard.batch_size):
        idx = order[start : start + shard.batch_size]
        yield shard.X[idx], shard.y[idx]


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def out_of_place_epoch(model, params, shard, lr, extra_grad=None):
    params = params.copy()
    for X_batch, y_batch in per_batch_epoch(shard):
        grad = model.gradient(params, X_batch, y_batch)
        if extra_grad is not None:
            grad = grad + extra_grad(params)
        params = params - lr * grad
    return params


def out_of_place_admm_round(algo: ADMM, shard: Shard) -> np.ndarray:
    """``ADMM.round_payload`` on `shard` (a twin of the algorithm's own)."""
    x = algo._z.copy()
    for _ in range(algo.scans):
        x = out_of_place_epoch(
            algo.model, x, shard, algo.lr,
            extra_grad=lambda v: algo.rho * (v - algo._z + algo._u),
        )
    return x + algo._u


# ---------------------------------------------------------------------------
# (a) kernel identity
# ---------------------------------------------------------------------------
def _csr_shard(n_rows, n_cols, batch_size, seed):
    rng = np.random.default_rng(seed)
    X = sparse.random(n_rows, n_cols, density=0.15, format="csr", random_state=rng)
    keep = np.ones(n_rows)
    keep[rng.choice(n_rows, size=max(1, n_rows // 5), replace=False)] = 0.0  # empty rows
    X = (sparse.diags(keep) @ X).tocsr()
    X.eliminate_zeros()
    assert (np.diff(X.indptr) == 0).any()
    y = rng.choice(np.array([-1, 1], dtype=np.int8), size=n_rows)
    return Shard(0, X, y, X[:1], y[:1], batch_size, rng=np.random.default_rng(seed + 1))


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("n_rows,batch_size", [(37, 8), (40, 8), (5, 64), (9, 1)])
def test_csr_batches_equal_scipy_batches(n_rows, batch_size, index_dtype):
    """Short last batch, exact division, batch > rows, one-row batches."""
    shard = _csr_shard(n_rows, 23, batch_size, seed=n_rows)
    twin = copy.deepcopy(shard)
    order = copy.deepcopy(shard.rng).permutation(n_rows)
    rng = np.random.default_rng(7)
    p = rng.standard_normal(23)

    ours = list(shard.epoch_batches())
    theirs = list(per_batch_epoch(twin))
    assert len(ours) == len(theirs) == shard.iterations_per_epoch
    assert shard.rng.bit_generator.state == twin.rng.bit_generator.state
    for (rows, y), (X_batch, y_batch) in zip(ours, theirs):
        assert isinstance(rows, CsrRows) and rows.shape == X_batch.shape
        # scipy picks the gathered copy's index width; the kernels take both.
        rows = CsrRows(rows.indptr.astype(index_dtype), rows.indices.astype(index_dtype),
                       rows.data, rows.shape)
        v = rng.standard_normal(rows.shape[0])
        assert np.array_equal(rows @ p, X_batch @ p)
        assert np.array_equal(rows.T @ v, X_batch.T @ v)
        assert rows.T.shape == X_batch.T.shape
        assert np.array_equal(y, y_batch)

    # The batches are consecutive runs of one gathered copy, X[order].
    stacked = sparse.vstack([
        sparse.csr_matrix((rows.data, rows.indices, rows.indptr), shape=rows.shape)
        for rows, _ in ours
    ])
    assert np.array_equal(stacked.toarray(), shard.X[order].toarray())
    assert np.array_equal(np.concatenate([y for _, y in ours]), shard.y[order])


def test_dense_batches_are_views_of_one_gathered_copy():
    split = generate("higgs", seed=1)
    shard = make_shards(split, 4, global_batch=400, seed=1)[0]
    twin = copy.deepcopy(shard)
    ours = list(shard.epoch_batches())
    theirs = list(per_batch_epoch(twin))
    assert shard.rng.bit_generator.state == twin.rng.bit_generator.state
    for (X, y), (X_batch, y_batch) in zip(ours, theirs):
        assert np.array_equal(X, X_batch) and np.array_equal(y, y_batch)
    gathered = ours[0][0].base
    assert gathered is not None and all(X.base is gathered for X, _ in ours)


def test_csr_rows_reject_a_vector_of_the_wrong_length():
    shard = _csr_shard(12, 23, 4, seed=3)
    rows, _ = next(shard.epoch_batches())
    with pytest.raises(ValueError, match="cannot multiply"):
        rows @ np.zeros(22)
    with pytest.raises(ValueError, match="cannot multiply"):
        rows.T @ np.zeros(23)


# ---------------------------------------------------------------------------
# (b) sigmoid
# ---------------------------------------------------------------------------
def test_sigmoid_equals_the_masked_implementation():
    tiny = np.finfo(np.float64).tiny
    edge = np.array([
        0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 709.8, -709.8, np.inf, -np.inf,
        tiny, -tiny, 5e-324, -5e-324, 1e-310, -1e-310, 36.7, -36.7, 1.0, -1.0,
    ])
    rng = np.random.default_rng(0)
    wide = rng.standard_normal(100_000) * np.exp(rng.uniform(-12, 7, size=100_000))
    for z in (edge, wide, edge[:1], edge[:0]):
        with np.errstate(all="raise", under="ignore"):
            got = _sigmoid(z)
        assert got.dtype == np.float64
        assert np.array_equal(got, masked_sigmoid(z))
        assert np.array_equal(np.signbit(got), np.signbit(masked_sigmoid(z)))


# ---------------------------------------------------------------------------
# (c) aliasing: in-place steps on owned arrays only
# ---------------------------------------------------------------------------
def _shards(dataset):
    if dataset == "higgs":
        split = generate("higgs", seed=11)
        return make_shards(split, 4, global_batch=400, seed=11)[0]
    split = generate("rcv1", scale=400, seed=11)
    return make_shards(split, 4, global_batch=64, seed=11)[0]


@pytest.mark.parametrize("dataset", ["higgs", "rcv1"])
@pytest.mark.parametrize("model_cls", [LogisticRegression, LinearSVM])
def test_sgd_epoch_equals_out_of_place_reference(dataset, model_cls):
    shard = _shards(dataset)
    shard, twin = copy.deepcopy(shard), copy.deepcopy(shard)
    model = model_cls(shard.X.shape[1], l2=1e-3)
    rng = np.random.default_rng(5)
    params = rng.standard_normal(model.n_params) * 0.1
    anchor = rng.standard_normal(model.n_params)
    kept = params.copy()
    handed_over = []

    def extra(x):
        pull = 0.3 * (x - anchor)
        handed_over.append((pull, pull.copy()))
        return pull

    got = sgd_epoch(model, params, shard, lr=0.2, extra_grad=extra)
    want = out_of_place_epoch(model, params, twin, 0.2, extra_grad=lambda x: 0.3 * (x - anchor))
    assert np.array_equal(params, kept)  # the argument is never written ...
    assert all(np.array_equal(pull, was) for pull, was in handed_over)  # ... nor the extra term
    assert got is not params and np.array_equal(got, want)
    assert len(handed_over) == shard.iterations_per_epoch


@pytest.mark.parametrize("dataset", ["higgs", "rcv1"])
def test_admm_rounds_equal_out_of_place_reference(dataset):
    shard = _shards(dataset)
    model = LogisticRegression(shard.X.shape[1])
    init = model.init_params(make_rng(3))
    algo = ADMM(model, copy.deepcopy(shard), lr=0.1, init=init, rho=0.05, scans=2)
    twin = copy.deepcopy(shard)
    for _ in range(2):
        z, u = algo._z.copy(), algo._u.copy()
        want = out_of_place_admm_round(algo, twin)
        got = algo.round_payload()
        assert np.array_equal(got, want)
        assert np.array_equal(algo._z, z) and np.array_equal(algo._u, u)
        algo.apply(0.5 * got)  # any merged vector: moves z and u off zero
    assert algo._u.any()


@pytest.mark.parametrize("dataset", ["higgs", "rcv1"])
def test_ma_sgd_round_equals_out_of_place_reference(dataset):
    shard = _shards(dataset)
    model = LogisticRegression(shard.X.shape[1], l2=1e-4)
    init = model.init_params(make_rng(3))
    algo = ModelAveragingSGD(model, copy.deepcopy(shard), lr=0.3, init=init)
    twin = copy.deepcopy(shard)
    want = out_of_place_epoch(model, algo.params, twin, 0.3)
    first = algo.round_payload()
    assert np.array_equal(first, want)
    # The payload handed to the channel is not the next round's scratch.
    shipped = first.copy()
    second = algo.round_payload()
    assert np.array_equal(first, shipped)
    assert np.array_equal(second, out_of_place_epoch(model, want, twin, 0.3))


# ---------------------------------------------------------------------------
# (d) a generator held across engine yields: the ASP executor
# ---------------------------------------------------------------------------
def test_asp_lr_rcv1_history_is_the_parent_commits():
    """Four S-ASP workers each keep one ``epoch_batches()`` generator
    alive across their yields, over three epochs. The floats were
    recorded at the commit before the gather-once loader."""
    result = train(TrainingConfig(
        model="lr", dataset="rcv1", algorithm="ga_sgd", protocol="asp", workers=4,
        data_scale=400, batch_size=20_000, lr=0.5, max_epochs=3, loss_threshold=None,
        channel="redis", seed=11,
    ))
    assert result.duration_s == 150.30753968651862
    assert result.cost_total == 0.03147452818299186
    assert result.comm_rounds == 99
    assert [(p.time_s, p.epoch, p.loss) for p in result.history] == [
        (140.01272076416015, 0.0, 0.6931471805599452),
        (140.0254415283203, 0.0, 0.6931471805599452),
        (140.03816229248045, 0.0, 0.6931471805599452),
        (140.0508830566406, 0.0, 0.6931471805599452),
        (143.3852379174789, 1.0, 0.6874753620642893),
        (143.42423620995933, 1.0, 0.6879696889367429),
        (143.43779297411947, 1.0, 0.6865343690318649),
        (143.4760705024398, 1.0, 0.6898663106482102),
        (146.78247812743822, 2.0, 0.6843932040587966),
        (146.83419718407882, 2.0, 0.6855588961869844),
        (146.84775394823896, 2.0, 0.6834236252383504),
        (146.88603147655928, 2.0, 0.6875329109207465),
        (150.19198633739757, 3.0, 0.6819719262539946),
        (150.24370539403816, 3.0, 0.6829605779845069),
        (150.2572621581983, 3.0, 0.6762841032244067),
        (150.29553968651862, 3.0, 0.6855708077382474),
    ]
