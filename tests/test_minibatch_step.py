"""The minibatch step yields the parent's bits from cheaper spellings.

``Shard.epoch_batches`` gathers the shuffled shard once (scipy's row
gather on raw arrays) and cuts raw-CSR row runs (``CsrRows``) or dense
views from it, ``_sigmoid`` selects between its two branches instead of
gathering and scattering, the SGD / ADMM updates work in place on arrays
they own, and a CSR batch that stores few entries takes the linear
models' O(nnz) ``sparse_step``. Each spelling is checked here, bit for
bit, against the straightforward one it replaced, which lives on in this
file as the oracle.
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
from repro.optim.local import SPARSE_STEP_RATIO, sgd_epoch
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
def _csr_shard(n_rows, n_cols, batch_size, seed, source="int32"):
    """A CSR shard with empty rows; `source` picks the index arrays' dtype
    (``mixed``: int64 indptr, int32 indices)."""
    rng = np.random.default_rng(seed)
    X = sparse.random(n_rows, n_cols, density=0.15, format="csr", random_state=rng)
    keep = np.ones(n_rows)
    keep[rng.choice(n_rows, size=max(1, n_rows // 5), replace=False)] = 0.0  # empty rows
    X = (sparse.diags(keep) @ X).tocsr()
    X.eliminate_zeros()
    assert (np.diff(X.indptr) == 0).any()
    if source != "int32":
        X.indptr = X.indptr.astype(np.int64)
        X.indices = X.indices.astype(np.int64 if source == "int64" else np.int32)
    y = rng.choice(np.array([-1, 1], dtype=np.int8), size=n_rows)
    return Shard(0, X, y, X[:1], y[:1], batch_size, rng=np.random.default_rng(seed + 1))


@pytest.mark.parametrize("n_rows,batch_size,index_dtype,source", [
    pytest.param(n_rows, batch_size, index_dtype, source, id=f"{n_rows}-{batch_size}-"
                 f"{index_dtype.__name__}" + ("" if source == "int32" else f"-{source}-source"))
    for source in ("int32", "int64", "mixed")
    for index_dtype in (np.int32, np.int64)
    for n_rows, batch_size in ((37, 8), (40, 8), (5, 64), (9, 1))
])
def test_csr_batches_equal_scipy_batches(n_rows, batch_size, index_dtype, source):
    """Short last batch, exact division, batch > rows, one-row batches."""
    shard = _csr_shard(n_rows, 23, batch_size, seed=n_rows, source=source)
    twin = copy.deepcopy(shard)
    order = copy.deepcopy(shard.rng).permutation(n_rows)
    gathered = shard.X[order]
    rng = np.random.default_rng(7)
    p = rng.standard_normal(23)

    ours = list(shard.epoch_batches())
    theirs = list(per_batch_epoch(twin))
    assert len(ours) == len(theirs) == shard.iterations_per_epoch
    assert shard.rng.bit_generator.state == twin.rng.bit_generator.state
    for (rows, y), (X_batch, y_batch) in zip(ours, theirs):
        assert isinstance(rows, CsrRows) and rows.shape == X_batch.shape
        # The gather keeps the index widths scipy's X[order] would have.
        assert rows.indptr.dtype == gathered.indptr.dtype
        assert rows.indices.dtype == gathered.indices.dtype
        # The kernels take either width.
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
    assert np.array_equal(stacked.toarray(), gathered.toarray())
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
# (d) the sparse step: CSR batches that store few entries against d
# ---------------------------------------------------------------------------
PER_ROW = 4
#: A ten-row batch of PER_ROW-entry rows sits exactly at the regime switch.
D = 10 * PER_ROW * SPARSE_STEP_RATIO
REGIMES = {"below": 9, "at": 10, "above": 12}  # batch sizes over 60 full rows


def _fill_shard(batch_size: int) -> Shard:
    """60 rows of exactly PER_ROW entries each."""
    rng = np.random.default_rng(4)
    indices = np.concatenate([np.sort(rng.choice(D, PER_ROW, replace=False)) for _ in range(60)])
    X = sparse.csr_matrix(
        (rng.uniform(0.5, 1.5, indices.size), indices, np.arange(0, indices.size + 1, PER_ROW)),
        shape=(60, D),
    )
    y = rng.choice(np.array([-1, 1], dtype=np.int8), size=60)
    return Shard(0, X, y, X[:1], y[:1], batch_size, rng=np.random.default_rng(5))


def _edge_shard() -> Shard:
    """Three-row batches over empty rows and a column (7) that every other
    row stores, with positive data, so ``p[7] = 3`` zeroes the SVM
    coefficient of the rows labelled +1."""
    rng = np.random.default_rng(6)
    rows = []
    for i in range(40):
        cols = [] if i % 4 == 3 else sorted({7, *rng.choice(D, 3, replace=False).tolist()})
        rows.append(cols)
    indptr = np.cumsum([0] + [len(cols) for cols in rows])
    indices = np.array([c for cols in rows for c in cols], dtype=np.int32)
    X = sparse.csr_matrix((rng.uniform(0.5, 1.5, indices.size), indices, indptr), shape=(40, D))
    y = rng.choice(np.array([-1, 1], dtype=np.int8), size=40)
    return Shard(0, X, y, X[:1], y[:1], 3, rng=np.random.default_rng(7))


def _seeded(kind: str) -> np.ndarray:
    p = np.random.default_rng(9).standard_normal(D) * 0.1
    p[7] = 3.0
    if kind == "negative zero":
        p[::7] = -0.0
    elif kind == "subnormal":  # l2 * -5e-324 is -0.0: a step must not lose that sign
        p[::5], p[1::5], p[2::5] = 5e-324, -5e-324, -1e-310
    elif kind == "inf":
        p[3::11], p[4::11] = np.inf, -np.inf
    elif kind == "nan":
        p[2::13] = np.nan
    return p


@pytest.mark.parametrize("seeding", ["finite", "negative zero", "subnormal", "inf", "nan"])
@pytest.mark.parametrize("extra", [False, True], ids=["plain", "extra"])
@pytest.mark.parametrize("model_cls", [LogisticRegression, LinearSVM])
@pytest.mark.parametrize("regime", [*REGIMES, "edge"])
def test_sparse_step_equals_out_of_place_reference(regime, model_cls, extra, seeding):
    shard = _edge_shard() if regime == "edge" else _fill_shard(REGIMES[regime])
    twin = copy.deepcopy(shard)
    model = model_cls(D, l2=1e-3)
    real, sizes = model.sparse_step, []

    def spy(params, X, y, lr, extra_grad):
        sizes.append(X.indices.size)
        real(params, X, y, lr, extra_grad)

    model.sparse_step = spy
    anchor = np.random.default_rng(10).standard_normal(D)
    extra_grad = (lambda x: 0.3 * (x - anchor)) if extra else None
    params, per_epoch = _seeded(seeding), []
    with np.errstate(all="ignore"):
        for _ in range(3):
            kept = params.tobytes()
            got = sgd_epoch(model, params, shard, 0.2, extra_grad)
            want = out_of_place_epoch(model, params, twin, 0.2, extra_grad)
            assert got.tobytes() == want.tobytes()
            assert params.tobytes() == kept  # the argument is unwritten
            if model._scratch is not None:  # the step's X^T coef scratch is all +0.0 again
                assert not model._scratch[0].view(np.int64).any()
            params = got
            per_epoch.append(len(sizes))
    steps = 3 * shard.iterations_per_epoch
    if seeding == "negative zero":  # the step may not see -0.0: the epoch goes dense
        assert per_epoch[0] == 0
    elif regime == "below" or regime == "edge":
        assert len(sizes) == steps and all(n * SPARSE_STEP_RATIO < D for n in sizes)
    else:
        assert sizes == []


def test_the_edge_shard_zeroes_svm_coefficients():
    """The case the edge shard exists for: stored columns whose X^T coef is
    exactly +0.0 (the SVM rows past the margin), beside empty rows."""
    shard, model, p = _edge_shard(), LinearSVM(D), _seeded("finite")
    coef = np.concatenate([model._coef(y * (rows @ p), y) for rows, y in shard.epoch_batches()])
    assert (coef == 0).any() and (coef != 0).any()
    assert (np.diff(shard.X.indptr) == 0).any()


# ---------------------------------------------------------------------------
# (e) a generator held across engine yields: the ASP executor
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
