"""The flat SGD step, the activation fast paths and the column-reusing fitters
change no output bit.

``train_sgd`` trains the layers' weights and biases as views of one flat
vector, gathers each epoch's rows once and takes batches as row slices;
``Relu``, ``LeakyRelu`` (and so ``ParametricRelu``) and ``Maxout`` override
``apply``/``backprop``/``pattern`` with cheaper expressions; ``fit_sbf`` and
``fit_ahh`` evaluate each accepted basis column once.  Each is compared with
the expression or loop it replaces, byte for byte.
"""

import numpy as np
import pytest

import pwlkit.learning as L
import pwlkit.models as M
import pwlkit.network as N
from pwlkit import Dataset, DimensionMismatchError, FitConfig, NonFiniteLossError
from pwlkit.models import AhhBasis, AhhModel, SbfModel
from pwlkit.network import (
    Activation,
    LeakyRelu,
    Maxout,
    ParametricRelu,
    Relu,
    TrainConfig,
    init_params,
    network_from_sizes,
    train_sgd,
)
from test_fit_loops import ref_train_sgd

SPECIALS = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.inf, -np.inf, np.nan])


def _inputs(rng, rows, width):
    """Random pre-activations and upstream gradients salted with signed zeros,
    infinities and NaNs."""
    z = rng.normal(size=(rows, width))
    up = rng.normal(size=(rows, width))
    for a in (z, up):
        salt = rng.random(a.shape) < 0.3
        a[salt] = rng.choice(SPECIALS, size=int(salt.sum()))
    return z, up


def _codes(rng, z, act):
    """The activation's own codes at z, and 0/1 codes drawn apart from z (as a
    frozen pattern replays them), as int8 and as int64."""
    own = act.pattern(z)
    drawn = (rng.random(z.shape) < 0.5).astype(np.int8)
    return [own, drawn, own.astype(np.int64), drawn.astype(np.int64)]


# ---------------------------------------------------------------------------
# Activation overrides against the expressions they replace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rows", [1, 7, 64])
def test_relu_backprop_is_the_generic_expression(rows):
    rng = np.random.default_rng(rows)
    act = Relu(5)
    z, up = _inputs(rng, rows, 5)
    with np.errstate(invalid="ignore"):
        for p in _codes(rng, z, act):
            want = Activation.backprop(act, z, p, up)   # upstream * grad_z
            got = act.backprop(z, p, up)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("make", [lambda w: LeakyRelu(w), lambda w: LeakyRelu(w, lam=0.3),
                                  lambda w: ParametricRelu(w)])
@pytest.mark.parametrize("rows", [1, 7, 64])
def test_leaky_apply_and_backprop_are_the_where_expressions(make, rows):
    rng = np.random.default_rng(rows)
    act = make(6)
    if isinstance(act.lam, np.ndarray):
        act.lam[...] = rng.uniform(0.05, 0.5, 6)      # a slope per neuron
    z, up = _inputs(rng, rows, 6)
    with np.errstate(invalid="ignore"):
        for p in _codes(rng, z, act):
            want = np.where(p == 1, z, act.lam * z)
            got = act.apply(z, p)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            want = Activation.backprop(act, z, p, up)   # upstream * where(p == 1, 1, lam)
            got = act.backprop(z, p, up)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_relu_family_patterns_are_int8_codes():
    z = np.array([[-1.0, -0.0, 0.0, 2.0, np.nan, -np.inf, np.inf]])
    for act in (Relu(7), LeakyRelu(7), ParametricRelu(7)):
        p = act.pattern(z)
        assert p.dtype == np.int8
        assert p.tobytes() == (z >= 0).astype(np.int8).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 200])
@pytest.mark.parametrize("rows", [1, 9])
def test_maxout_pattern_is_argmax(k, rows):
    """Ties go to the lowest slot, the first NaN wins, infinities compare as
    numbers: exactly ``np.argmax`` over each unit's slots."""
    rng = np.random.default_rng(k * 100 + rows)
    act = Maxout(4, k)
    draws = [rng.choice(SPECIALS, size=(rows, 4 * k)),             # ties, inf, NaN
             rng.choice([0.0, -0.0, 1.0], size=(rows, 4 * k)),     # ties only
             rng.choice([np.inf, -np.inf], size=(rows, 4 * k)),
             np.full((rows, 4 * k), np.nan),
             rng.normal(size=(rows, 4 * k))]
    for z in draws:
        want = np.argmax(z.reshape(rows, 4, k), axis=2)
        got = act.pattern(z)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_maxout_pattern_nan_after_a_larger_value():
    z = np.array([[3.0, np.nan, 5.0, 1.0, np.nan, np.nan, -np.inf, -np.inf, -np.inf]])
    act = Maxout(1, 9)
    assert act.pattern(z).tolist() == np.argmax(z, axis=1)[:, None].tolist() == [[1]]


# ---------------------------------------------------------------------------
# train_sgd on the flat buffer
# ---------------------------------------------------------------------------

def _data(rows=40, seed=0):
    X = np.random.default_rng(seed).uniform(-1.0, 1.0, (rows, 2))
    return Dataset(X, np.maximum(X[:, 0] - X[:, 1], 0.0) + 0.3 * np.abs(X[:, 1]))


def _runs(kind, data, cfg, sizes=(2, 5, 4, 1)):
    runs = []
    for train in (ref_train_sgd, train_sgd):
        net = network_from_sizes(list(sizes), kind)
        init_params(net, seed=4)
        with np.errstate(all="ignore"):
            net, curve = train(net, data, cfg)
        runs.append([p.tobytes() for p in net.parameters()] + [curve.tobytes()])
    return runs


@pytest.mark.parametrize("kind", ["relu", "leaky_relu", "maxout", "parametric_relu", "apl"])
@pytest.mark.parametrize("batch, epochs", [(1, 3), (7, 5), (41, 5), (1000, 4), (16, 0)])
def test_train_sgd_matches_reference_across_batch_sizes(kind, batch, epochs):
    """Batch 1, a partial last batch (40 rows by 7), one batch larger than the
    data, and no epochs at all."""
    cfg = TrainConfig(learning_rate=0.05, batch_size=batch, epochs=epochs, seed=1)
    want, got = _runs(kind, _data(), cfg)
    assert got == want


def test_train_sgd_keeps_the_nets_arrays():
    data = _data()
    net = network_from_sizes([2, 5, 4, 1], "parametric_relu")
    init_params(net, seed=4)
    before = [id(p) for p in net.parameters()]
    start = [p.copy() for p in net.parameters()]
    net, curve = train_sgd(net, data, TrainConfig(learning_rate=0.05, batch_size=8,
                                                  epochs=3, seed=1))
    assert len(curve) == 3
    assert [id(p) for p in net.parameters()] == before
    assert all(not np.array_equal(p, s) for p, s in zip(net.parameters(), start))
    ref = network_from_sizes([2, 5, 4, 1], "parametric_relu")
    init_params(ref, seed=4)
    ref, _ = ref_train_sgd(ref, data, TrainConfig(learning_rate=0.05, batch_size=8,
                                                  epochs=3, seed=1))
    assert [p.tobytes() for p in net.parameters()] == [p.tobytes() for p in ref.parameters()]


@pytest.mark.parametrize("lr, batch, step_aborts", [(2.0, 64, False), (1000.0, 1, True)])
def test_train_sgd_keeps_the_nets_arrays_after_a_divergence_restore(monkeypatch, lr, batch,
                                                                    step_aborts):
    """lr 2 passes some epochs, then the epoch loss passes the divergence
    limit; lr 1000 makes a step non-finite within the first epoch.  Either
    way the net's own arrays hold the restored state, as in the reference."""
    x = np.linspace(-1.0, 1.0, 64)[:, None]
    data = Dataset(x, x[:, 0])
    cfg = TrainConfig(learning_rate=lr, batch_size=batch, epochs=30, seed=0)
    aborted = []
    step = N._loss_and_grads

    def recording(*args):
        try:
            return step(*args)
        except NonFiniteLossError:
            aborted.append(True)
            raise

    monkeypatch.setattr(N, "_loss_and_grads", recording)
    runs = []
    for train in (ref_train_sgd, train_sgd):
        net = network_from_sizes([1, 4, 1], "relu")
        init_params(net, seed=0)
        before = [id(l.weight) for l in net.layers] + [id(l.bias) for l in net.layers]
        with np.errstate(all="ignore"):
            net, curve = train(net, data, cfg)
        assert len(curve) < cfg.epochs
        assert [id(l.weight) for l in net.layers] + [id(l.bias) for l in net.layers] == before
        assert all(np.all(np.isfinite(p)) for p in net.parameters())
        runs.append([p.tobytes() for p in net.parameters()] + [curve.tobytes()])
    assert runs[0] == runs[1]
    assert bool(aborted) == step_aborts
    assert step_aborts or len(curve) > 0


def test_train_sgd_refuses_a_multi_output_net():
    """The targets are one column; a 2-output net used to pull both outputs
    toward it and report the loss of output 0 only."""
    net = network_from_sizes([2, 4, 2], "relu")
    init_params(net, seed=0)
    start = [p.copy() for p in net.parameters()]
    with pytest.raises(DimensionMismatchError) as err:
        train_sgd(net, _data(), TrainConfig(epochs=2))
    assert (err.value.expected, err.value.got) == (1, 2)
    assert "output" in str(err.value)
    assert all(np.array_equal(p, s) for p, s in zip(net.parameters(), start))


# ---------------------------------------------------------------------------
# SBF and AHH: the parent loops, evaluating every basis again for each use
# ---------------------------------------------------------------------------

def ref_sbf_column(X, gamma, zeta):
    return np.maximum(1.0 - np.abs(X - zeta) @ gamma, 0.0)


def ref_sbf_columns(X, bases):
    if not bases:
        return np.empty((X.shape[0], 0))
    return np.column_stack([ref_sbf_column(X, g, z) for g, z in bases])


def ref_sbf_refit(X, y, bases, ridge):
    if not bases:
        return np.empty(0), float(np.sum(y ** 2))
    C = ref_sbf_columns(X, bases)
    theta = L.least_squares(C, y, ridge)
    return theta, float(np.sum((C @ theta - y) ** 2))


def ref_fit_sbf(data, cfg):
    cfg, _rng, trace, Xt, yt, Xv, yv = L._fit_setup(data, cfg)
    n = data.dim
    bases = []
    theta, sse = ref_sbf_refit(Xt, yt, bases, cfg.ridge)

    def val_sse_of(bs, th, train_sse):
        return L._validation_sse(lambda Z: ref_sbf_columns(Z, bs) @ th, Xv, yv, train_sse)

    trace.add(0, sse, val_sse_of(bases, theta, sse), "empty")
    for _ in range(cfg.max_terms):
        residual = yt - ref_sbf_columns(Xt, bases) @ theta
        peak = float(np.max(np.abs(residual)))
        if peak <= 1e-12:
            trace.add(len(bases), sse, val_sse_of(bases, theta, sse), "stop-perfect")
            break
        zeta = Xt[int(np.argmax(np.abs(residual)))].copy()
        gamma = np.ones(n)
        B = ref_sbf_columns(Xt, bases)
        for _sweep in range(L.SBF_SWEEPS):
            for i in range(n):
                cols = []
                for g in L.SBF_GAMMA_GRID:
                    trial_gamma = gamma.copy()
                    trial_gamma[i] = g
                    cols.append(ref_sbf_column(Xt, trial_gamma, zeta))
                blocks = np.stack(cols, axis=1)[:, :, None]
                scan = L._scan_candidate_blocks(B, yt, blocks, cfg.ridge)
                j = int(np.argmin(scan))
                if np.isfinite(scan[j]):
                    gamma[i] = L.SBF_GAMMA_GRID[j]
        new_bases = bases + [(gamma, zeta)]
        new_theta, new_sse = ref_sbf_refit(Xt, yt, new_bases, cfg.ridge)
        if new_sse > sse - cfg.tolerance:
            trace.add(len(bases), sse, val_sse_of(bases, theta, sse), "stop-no-progress")
            break
        bases, theta, sse = new_bases, new_theta, new_sse
        trace.add(len(bases), sse, val_sse_of(bases, theta, sse), "add-tent")
    model = SbfModel(n, [(float(theta[k]), g, z) for k, (g, z) in enumerate(bases)])
    return model, trace


def ref_fit_ahh(data, cfg):
    cfg, _rng, trace, Xt, yt, Xv, yv = L._fit_setup(data, cfg)
    n = data.dim
    bases, tree = [], []
    theta, sse = L._ahh_refit(Xt, yt, bases, cfg.ridge)

    def val_sse_of(bs, th, train_sse):
        return L._validation_sse(lambda Z: L._ahh_columns(Z, bs) @ th, Xv, yv, train_sse)

    trace.add(0, sse, val_sse_of(bases, theta, sse), "intercept")
    knots_of = {}
    while len(bases) + 2 <= cfg.max_terms:
        B = L._ahh_columns(Xt, bases)
        basis_cols = B[:, 1:]
        best = None
        for parent in range(-1, len(bases)):
            parent_col = np.ones(Xt.shape[0]) if parent < 0 else basis_cols[:, parent]
            support = parent_col > 0
            if not np.any(support):
                continue
            for v in range(n):
                if (parent, v) not in knots_of:
                    knots_of[parent, v] = L._ahh_knots(Xt[support, v])
                knots = knots_of[parent, v]
                if knots is None:
                    continue
                x = Xt[:, v][:, None]
                blocks = np.empty((Xt.shape[0], knots.shape[0], 2))
                np.minimum(parent_col[:, None], np.maximum(x - knots, 0.0),
                           out=blocks[:, :, 0])
                np.minimum(parent_col[:, None], np.maximum(knots - x, 0.0),
                           out=blocks[:, :, 1])
                scan = L._scan_candidate_blocks(B, yt, blocks, cfg.ridge)
                i = int(np.argmin(scan))
                if np.isfinite(scan[i]) and (best is None or scan[i] < best[0] - 1e-15):
                    best = (float(scan[i]), parent, v, float(knots[i]))
        if best is None or best[0] > sse - cfg.tolerance:
            trace.add(len(bases), sse, val_sse_of(bases, theta, sse), "stop-no-progress")
            break
        _, parent, v, knot = best
        parent_factors = () if parent < 0 else bases[parent].factors
        pair = [AhhBasis(parent_factors + ((+1, v, knot),)),
                AhhBasis(parent_factors + ((-1, v, knot),))]
        th, s = L._ahh_refit(Xt, yt, bases + pair, cfg.ridge)
        if s > sse - cfg.tolerance:
            trace.add(len(bases), sse, val_sse_of(bases, theta, sse), "stop-no-progress")
            break
        for delta, child in zip((+1, -1), pair):
            bases.append(child)
            tree.append(L.AhhTreeNode(child.factors, parent_factors if parent >= 0 else None,
                                      delta, v, knot))
        theta, sse = th, s
        trace.add(len(bases), sse, val_sse_of(bases, theta, sse), "add-pair")
    current_val = val_sse_of(bases, theta, sse)
    while bases:
        best = None
        C, Cv = L._ahh_columns(Xt, bases), L._ahh_columns(Xv, bases)
        for k in range(len(bases)):
            th, s = L._refit_columns(np.delete(C, k + 1, axis=1), yt, cfg.ridge)
            vs = L._validation_sse(lambda _: np.delete(Cv, k + 1, axis=1) @ th, Xv, yv, s)
            if best is None or vs < best[0]:
                best = (vs, k, th, s)
        if best is None or best[0] >= current_val:
            break
        current_val, k, theta, sse = best
        removed = bases.pop(k)
        for node in tree:
            if node.factors == removed.factors and not node.pruned:
                node.pruned = True
                break
        trace.add(len(bases), sse, current_val, "prune")
    model = AhhModel(n, float(theta[0]),
                     [(float(theta[1 + k]), b) for k, b in enumerate(bases)])
    return model, trace, tree


def _fit_data(seed):
    r = np.random.default_rng(seed)
    N, n = int(r.integers(20, 120)), int(r.integers(1, 4))
    X = r.uniform(-1.0, 1.0, (N, n))
    y = np.abs(X @ r.normal(size=n)) + np.maximum(X[:, 0], 0.0) + 0.1 * r.normal(size=N)
    return Dataset(X, y)


def _sbf_bytes(model, trace):
    return [np.float64(w).tobytes() + g.tobytes() + z.tobytes()
            for w, g, z in model.bases], trace.to_csv()


def _ahh_bytes(model, trace, tree):
    return ([np.float64(model.intercept).tobytes()]
            + [(np.float64(w).tobytes(), b.factors) for w, b in model.bases],
            trace.to_csv(), [(t.factors, t.parent_factors, t.pruned) for t in tree])


@pytest.mark.parametrize("split", [0.0, 0.25])
@pytest.mark.parametrize("seed", range(4))
def test_fit_sbf_matches_reference(seed, split):
    data = _fit_data(seed)
    cfg = FitConfig(max_terms=6, seed=seed, validation_split=split)
    assert _sbf_bytes(*L.fit_sbf(data, cfg)) == _sbf_bytes(*ref_fit_sbf(data, cfg))


@pytest.mark.parametrize("split", [0.0, 0.25])
@pytest.mark.parametrize("seed", range(4))
def test_fit_ahh_matches_reference_with_fewer_basis_evaluations(monkeypatch, seed, split):
    data = _fit_data(seed)
    cfg = FitConfig(max_terms=8, seed=seed, validation_split=split)
    calls = [0]
    values = M.AhhBasis.values

    def counted(self, X):
        calls[0] += 1
        return values(self, X)

    monkeypatch.setattr(M.AhhBasis, "values", counted)
    want = _ahh_bytes(*ref_fit_ahh(data, cfg))
    ref_calls, calls[0] = calls[0], 0
    assert _ahh_bytes(*L.fit_ahh(data, cfg)) == want
    assert calls[0] < ref_calls
