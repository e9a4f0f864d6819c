"""The fit loops' early exits change no output bit.

``_find_hinge`` and ``_simultaneous_polish`` stop at the first membership
state they have already solved, the ``fit_hh`` backfit stops once every
step has been re-tested on an unchanged state, ``fit_hh`` scans each
``_refine_bias`` input once, and ``train_sgd`` steps through layers bound
once.  The reference loops below are the versions without those exits;
each test asserts byte-equal results and, for the alternations and the
bias scans, strictly less work.
"""

import numpy as np
import pytest

import pwlkit.learning as L
from pwlkit import Dataset, DimensionMismatchError, FitConfig, NonFiniteLossError
from pwlkit.errors import DegenerateSplitError
from pwlkit.network import (
    ACTIVATION_KINDS,
    TrainConfig,
    backward_batch,
    init_params,
    network_from_sizes,
    train_sgd,
)


def grid2d(lo, hi, count):
    ax = np.linspace(lo, hi, count)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def plateau(X):
    """Acceptance criterion 11's fold with plateau."""
    d = 65.0 * (X[:, 0] - X[:, 1])
    return np.maximum(np.maximum(d, -d), 15.0 * (X[:, 0] + X[:, 1]) - 10.0) - np.abs(d)


# ---------------------------------------------------------------------------
# Reference loops: alternations that stop only on a fixed point, a backfit
# that stops only after a sweep without a move, SGD through the public
# per-call forward and gradient.
# ---------------------------------------------------------------------------

def ref_find_hinge(X, y, cfg, rng, init=None):
    N, n = X.shape
    Xa = L._augment(X)
    if init is not None:
        tp0, tm0 = (np.asarray(t, dtype=float) for t in init)
        mask = Xa @ (tp0 - tm0) > 0
    else:
        theta0 = L.least_squares(Xa, y, cfg.ridge)
        mask = (y - Xa @ theta0) > 0
    if mask.all() or not mask.any():
        mask = rng.random(N) < 0.5
    best = None
    restarts = 0
    for it in range(1, cfg.max_iterations + 1):
        if mask.all() or not mask.any():
            restarts += 1
            if restarts > L.RESTART_BUDGET:
                break
            mask = rng.random(N) < 0.5
            continue
        tp = L.least_squares(Xa[mask], y[mask], cfg.ridge)
        tm = L.least_squares(Xa[~mask], y[~mask], cfg.ridge)
        sse = L._sse(y - np.maximum(Xa @ tp, Xa @ tm))
        new_mask = Xa @ (tp - tm) > 0
        if np.array_equal(new_mask, mask):
            return L.HingeFit(tp, tm, mask.copy(), it, True, sse)
        if best is None or sse < best.sse:
            best = L.HingeFit(tp, tm, mask.copy(), it, False, sse)
        mask = new_mask
    if best is None:
        raise DegenerateSplitError("no two-sided split")
    return best


def ref_simultaneous_polish(X, y, directions, ridge, max_iters=15):
    if not directions:
        return directions, None, np.inf
    Xa = L._augment(X)
    n1 = Xa.shape[1]
    dirs = [d.copy() for d in directions]
    best_dirs, best_theta, best_sse = None, None, np.inf
    prev_masks = None
    for _ in range(max_iters):
        masks = [Xa @ d > 0 for d in dirs]
        if any(m.all() or not m.any() for m in masks):
            break
        cols = [Xa] + [m[:, None] * Xa for m in masks]
        theta = L.least_squares(np.column_stack(cols), y, ridge)
        new_dirs = []
        degenerate = False
        for k in range(len(dirs)):
            gamma = theta[n1 * (k + 1): n1 * (k + 2)]
            if np.linalg.norm(gamma[:-1]) <= 1e-12:
                degenerate = True
                break
            new_dirs.append(L._normalized(gamma))
        if degenerate:
            break
        dirs = new_dirs
        th, sse = L._refit_hinges(X, y, dirs, ridge)
        if sse < best_sse:
            best_dirs, best_theta, best_sse = [d.copy() for d in dirs], th, sse
        stacked = tuple(m.tobytes() for m in (Xa @ d > 0 for d in dirs))
        if prev_masks == stacked:
            break
        prev_masks = stacked
    if best_dirs is None:
        return directions, None, np.inf
    return best_dirs, best_theta, best_sse


def ref_fit_hh(data, cfg):
    cfg, rng, trace, Xt, yt, Xv, yv = L._fit_setup(data, cfg)
    n = data.dim
    directions = []
    theta, sse = L._refit_hinges(Xt, yt, directions, cfg.ridge)
    model = L._hinge_model(n, theta, directions)
    val_sse = L._validation_sse(model.values, Xv, yv, sse)
    trace.add(0, sse, val_sse, "affine")
    for _ in range(cfg.max_terms):
        residual = yt - L._hinge_model(n, theta, directions).values(Xt)
        try:
            hf = ref_find_hinge(Xt, residual, cfg, rng)
        except DegenerateSplitError:
            trace.add(len(directions), sse, val_sse, "skip-degenerate")
            break
        delta = hf.direction
        if np.linalg.norm(delta[:-1]) <= 1e-12:
            trace.add(len(directions), sse, val_sse, "skip-degenerate")
            break
        new_dirs = directions + [L._normalized(delta)]
        new_theta, new_sse = L._refit_hinges(Xt, yt, new_dirs, cfg.ridge)
        new_dirs, th_r, sse_r, moved = L._refine_bias(
            Xt, yt, new_dirs, len(new_dirs) - 1, cfg.ridge, new_sse)
        if moved:
            new_theta, new_sse = th_r, sse_r
        if new_sse > sse - cfg.tolerance:
            trace.add(len(directions), sse, val_sse, "stop-no-progress")
            break
        directions, theta, sse = new_dirs, new_theta, new_sse
        for _sweep in range(L.BACKFIT_SWEEPS):
            improved = False
            p_dirs, p_theta, p_sse = ref_simultaneous_polish(
                Xt, yt, directions, cfg.ridge)
            if p_sse < sse - cfg.tolerance:
                directions, theta, sse = p_dirs, p_theta, p_sse
                improved = True
            for k in range(len(directions)):
                others = directions[:k] + directions[k + 1:]
                theta_o, _ = L._refit_hinges(Xt, yt, others, cfg.ridge)
                partial = yt - L._hinge_model(n, theta_o, others).values(Xt)
                try:
                    hk = ref_find_hinge(Xt, partial, cfg, rng,
                                        init=(directions[k], np.zeros(n + 1)))
                except DegenerateSplitError:
                    continue
                trial = list(directions)
                trial[k] = L._normalized(hk.direction)
                t_theta, t_sse = L._refit_hinges(Xt, yt, trial, cfg.ridge)
                if t_sse < sse - cfg.tolerance:
                    directions, theta, sse = trial, t_theta, t_sse
                    improved = True
                directions, th_k, sse_k, moved = L._refine_bias(
                    Xt, yt, directions, k, cfg.ridge, sse)
                if moved:
                    theta, sse = th_k, sse_k
                    improved = True
            if not improved:
                break
        model = L._hinge_model(n, theta, directions)
        val_sse = L._validation_sse(model.values, Xv, yv, sse)
        trace.add(len(directions), sse, val_sse, "add-hinge")
    return L._hinge_model(n, theta, directions), trace


def ref_forward(net, X):
    a, cache = X, []
    for layer in net.layers:
        z = a @ layer.weight.T + layer.bias
        if layer.activation is None:
            out, pattern = z, None
        else:
            out, pattern = layer.activation.forward(z)
        cache.append((a, z, pattern))
        a = out
    return a, cache


def ref_backward_batch(net, X, y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    a, cache = ref_forward(net, X)
    for idx, (_, z, _) in enumerate(cache):
        if not np.all(np.isfinite(z)):
            raise NonFiniteLossError(idx)
    diff = a - y
    loss = float(np.mean(np.sum(diff * diff, axis=1)))
    if not np.isfinite(loss):
        raise NonFiniteLossError(len(net.layers) - 1)
    per_layer = []
    upstream = 2.0 * diff / X.shape[0]
    for layer, (a_in, z, pattern) in zip(reversed(net.layers), reversed(cache)):
        act_grads = []
        if layer.activation is None:
            dz = upstream
        else:
            act_grads = layer.activation.param_grads(z, pattern, upstream)
            dz = layer.activation.backprop(z, pattern, upstream)
        per_layer.append([dz.T @ a_in, np.sum(dz, axis=0)] + act_grads)
        upstream = dz @ layer.weight
    return loss, [g for grads in reversed(per_layer) for g in grads]


def ref_train_sgd(net, data, cfg):
    rng = np.random.default_rng(cfg.seed)
    X, y = data.inputs, data.targets
    curve = []
    good = net.snapshot()
    for _epoch in range(cfg.epochs):
        perm = rng.permutation(data.size)
        for start in range(0, data.size, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            try:
                _, grads = ref_backward_batch(net, X[idx], y[idx])
            except NonFiniteLossError:
                net.restore(good)
                return net, np.array(curve)
            for p, g in zip(net.parameters(), grads):
                p -= cfg.learning_rate * np.asarray(g, dtype=float).reshape(p.shape)
        epoch_loss = float(np.mean((ref_forward(net, X)[0][:, 0] - y) ** 2))
        if not np.isfinite(epoch_loss) or epoch_loss > 1e12:
            net.restore(good)
            return net, np.array(curve)
        good = net.snapshot()
        curve.append(epoch_loss)
    return net, np.array(curve)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def counting(monkeypatch, name):
    """Count calls of ``pwlkit.learning.<name>`` made through the module."""
    calls = [0]
    inner = getattr(L, name)

    def wrapped(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(L, name, wrapped)
    return calls


def hinge_bytes(hf):
    return (hf.theta_plus.tobytes(), hf.theta_minus.tobytes(), hf.plus_mask.tobytes(),
            hf.iterations, hf.converged, np.float64(hf.sse).tobytes())


def model_bytes(model, trace):
    parts = [model.alpha0.tobytes(), np.float64(model.beta0).tobytes()]
    for w, alpha, beta in model.hinges:
        parts += [np.float64(w).tobytes(), alpha.tobytes(), np.float64(beta).tobytes()]
    return b"".join(parts), trace.to_csv()


# ---------------------------------------------------------------------------
# Alternation exits
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def hh_calls():
    """Arguments of every ``_find_hinge`` and ``_simultaneous_polish`` call
    that a 4-term ``fit_hh`` makes on a noisy 21x21 plateau grid, with the
    rng state each hinge search started from."""
    X = grid2d(0.0, 1.0, 21)
    data = Dataset(X, plateau(X) + np.random.default_rng(21).normal(0.0, 0.01, 441))
    found, polished = [], []
    find, polish = L._find_hinge, L._simultaneous_polish

    def record_find(X, y, cfg, rng, init=None):
        found.append((X, y, cfg, rng.bit_generator.state, init))
        return find(X, y, cfg, rng, init=init)

    def record_polish(X, y, directions, ridge):
        polished.append((X, y, [d.copy() for d in directions], ridge))
        return polish(X, y, directions, ridge)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(L, "_find_hinge", record_find)
        mp.setattr(L, "_simultaneous_polish", record_polish)
        L.fit_hh(data, FitConfig(max_terms=4, seed=2))
    return found, polished


def _rng_at(state):
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def test_find_hinge_cycle_exit_is_byte_identical(monkeypatch, hh_calls):
    calls = counting(monkeypatch, "least_squares")
    cycled = 0
    ref_total = total = 0
    for X, y, cfg, state, init in hh_calls[0]:
        rng_ref, rng = _rng_at(state), _rng_at(state)
        calls[0] = 0
        want = ref_find_hinge(X, y, cfg, rng_ref, init=init)
        ref_calls = calls[0]
        calls[0] = 0
        got = L._find_hinge(X, y, cfg, rng, init=init)
        assert hinge_bytes(got) == hinge_bytes(want)
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert calls[0] <= ref_calls
        cycled += calls[0] < ref_calls and not want.converged
        ref_total, total = ref_total + ref_calls, total + calls[0]
    assert cycled >= 1          # some alternation cycles on this fixture
    assert total < ref_total


def _outcome(find, X, y, cfg, rng, init):
    try:
        return hinge_bytes(find(X, y, cfg, rng, init=init))
    except DegenerateSplitError:
        return "degenerate"


def test_find_hinge_matches_reference_across_restarts():
    """Tiny 1-D samples often empty a side, so random re-splits happen; a
    split seen before a re-split must not end the alternation after it."""
    cfg = FitConfig(max_iterations=50)
    restarted = 0
    for seed in range(40):
        r = np.random.default_rng(seed)
        N = int(r.integers(4, 12))
        X = r.normal(size=(N, 1))
        y = r.normal(size=N) if seed % 2 else X[:, 0] ** 2 + 0.1 * r.normal(size=N)
        init = None if seed % 3 else (r.normal(size=2), np.zeros(2))
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _outcome(ref_find_hinge, X, y, cfg, rng_ref, init)
        got = _outcome(L._find_hinge, X, y, cfg, rng, init)
        assert got == want, seed
        assert rng.bit_generator.state == rng_ref.bit_generator.state, seed
        restarted += rng.bit_generator.state != np.random.default_rng(seed).bit_generator.state
    assert restarted >= 5


def test_polish_cycle_exit_is_byte_identical(monkeypatch, hh_calls):
    calls = counting(monkeypatch, "least_squares")
    cycled = False
    for X, y, directions, ridge in hh_calls[1]:
        calls[0] = 0
        want = ref_simultaneous_polish(X, y, directions, ridge)
        ref_calls = calls[0]
        calls[0] = 0
        got = L._simultaneous_polish(X, y, directions, ridge)
        assert [d.tobytes() for d in got[0]] == [d.tobytes() for d in want[0]]
        assert got[1].tobytes() == want[1].tobytes()
        assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()
        assert calls[0] <= ref_calls
        # one refit is saved on a fixed point; more only by leaving a cycle
        cycled |= calls[0] < ref_calls - 2
    assert cycled


# ---------------------------------------------------------------------------
# Backfit stop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("side, terms, split", [(21, 4, 0.0), (21, 3, 0.2)])
def test_fit_hh_backfit_stop_is_byte_identical(monkeypatch, side, terms, split):
    X = grid2d(0.0, 1.0, side)
    data = Dataset(X, plateau(X) + np.random.default_rng(side).normal(0.0, 0.01, side * side))
    cfg = FitConfig(max_terms=terms, seed=2, validation_split=split)
    calls = counting(monkeypatch, "_refine_bias")
    want = model_bytes(*ref_fit_hh(data, cfg))
    ref_calls = calls[0]
    calls[0] = 0
    got = model_bytes(*L.fit_hh(data, cfg))
    assert got == want
    assert calls[0] < ref_calls


def test_fit_hh_scans_each_bias_refinement_input_once(monkeypatch):
    """``_refine_bias`` depends only on the hinges, k and the SSE within one
    fit, so ``fit_hh`` hands it each such input once; the reference repeats
    some on this fixture."""
    X = grid2d(0.0, 1.0, 21)
    data = Dataset(X, plateau(X) + np.random.default_rng(21).normal(0.0, 0.01, 441))
    cfg = FitConfig(max_terms=4, seed=2)
    keys = []
    refine = L._refine_bias

    def recording(X, y, directions, k, ridge, sse):
        keys.append((b"".join(d.tobytes() for d in directions), k,
                     np.float64(sse).tobytes()))
        return refine(X, y, directions, k, ridge, sse)

    monkeypatch.setattr(L, "_refine_bias", recording)
    scans = counting(monkeypatch, "_scan_candidate_blocks")
    want = model_bytes(*ref_fit_hh(data, cfg))
    ref_keys, ref_scans = list(keys), scans[0]
    keys.clear()
    scans[0] = 0
    got = model_bytes(*L.fit_hh(data, cfg))
    assert got == want
    assert len(set(ref_keys)) < len(ref_keys)
    assert len(set(keys)) == len(keys)
    assert scans[0] < ref_scans


def test_fit_hh_matches_reference_on_small_noisy_samples():
    """Small noisy samples make hinge searches re-split at random inside the
    backfit, so a sweep that drew from the rng must not count as quiet."""
    for seed in range(10):
        r = np.random.default_rng(seed)
        N, n = int(r.integers(12, 40)), int(r.integers(1, 3))
        X = r.uniform(-1.0, 1.0, (N, n))
        data = Dataset(X, np.abs(X @ r.normal(size=n)) + 0.3 * r.normal(size=N))
        cfg = FitConfig(max_terms=3, seed=seed)
        assert model_bytes(*L.fit_hh(data, cfg)) == model_bytes(*ref_fit_hh(data, cfg)), seed


# ---------------------------------------------------------------------------
# SGD through layers bound once
# ---------------------------------------------------------------------------

def _sgd_data():
    X = np.random.default_rng(0).uniform(-1.0, 1.0, (150, 2))
    return Dataset(X, np.maximum(X[:, 0] - X[:, 1], 0.0) + 0.3 * np.abs(X[:, 1]))


@pytest.mark.parametrize("kind", sorted(ACTIVATION_KINDS))
def test_train_sgd_is_byte_identical(kind):
    data = _sgd_data()
    cfg = TrainConfig(learning_rate=0.05, batch_size=16, epochs=6, seed=2)
    runs = []
    for train in (ref_train_sgd, train_sgd):
        net = network_from_sizes([2, 6, 5, 1], kind)
        init_params(net, seed=3)
        net, curve = train(net, data, cfg)
        runs.append([p.tobytes() for p in net.parameters()] + [curve.tobytes()])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kind", sorted(ACTIVATION_KINDS))
def test_backward_batch_matches_reference(kind):
    data = _sgd_data()
    net = network_from_sizes([2, 6, 5, 1], kind)
    init_params(net, seed=5)
    for arr in net.parameters()[2:]:
        arr[...] += 0.1     # move learnable activation arrays off their defaults
    want_loss, want = ref_backward_batch(net, data.inputs[:40], data.targets[:40])
    loss, got = backward_batch(net, data.inputs[:40], data.targets[:40])
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert [g.tobytes() for g in got] == [g.tobytes() for g in want]
    assert [g.shape for g in got] == [p.shape for p in net.parameters()]


# ---------------------------------------------------------------------------
# Non-finite aborts
# ---------------------------------------------------------------------------

def test_diverging_net_restores_last_finite_snapshot():
    x = np.linspace(-1.0, 1.0, 64)[:, None]
    data = Dataset(x, 100.0 * x[:, 0])
    cfg = TrainConfig(learning_rate=50.0, batch_size=8, epochs=30, seed=0)
    runs = []
    for train in (ref_train_sgd, train_sgd):
        net = network_from_sizes([1, 4, 1], "relu")
        init_params(net, seed=0)
        with np.errstate(all="ignore"):
            net, curve = train(net, data, cfg)
        assert len(curve) < cfg.epochs          # the run did abort
        assert all(np.all(np.isfinite(p)) for p in net.parameters())
        runs.append([p.tobytes() for p in net.parameters()] + [curve.tobytes()])
    assert runs[0] == runs[1]


def _maxout_with_dead_slot():
    """Maxout net whose losing slot 1 of unit 0 is -inf at every input."""
    net = network_from_sizes([1, 2, 1], "maxout")
    init_params(net, seed=0)
    net.layers[0].bias[1] = -np.inf
    return net


def test_maxout_nonfinite_losing_slot_still_aborts():
    x = np.linspace(-1.0, 1.0, 32)[:, None]
    data = Dataset(x, np.abs(x[:, 0]))
    net = _maxout_with_dead_slot()
    out = net.values(x)
    assert np.all(np.isfinite(out))      # the loss is finite ...
    with pytest.raises(NonFiniteLossError) as err:
        backward_batch(net, x, data.targets)
    assert err.value.layer_index == 0    # ... but a pre-activation is not
    start = [p.copy() for p in net.parameters()]
    net, curve = train_sgd(net, data, TrainConfig(learning_rate=0.01, batch_size=8,
                                                  epochs=3, seed=0))
    assert len(curve) == 0
    assert all(np.array_equal(p, s) for p, s in zip(net.parameters(), start))


@pytest.mark.parametrize("layer, value, y", [
    (0, np.inf, 0.0),       # first pre-activation non-finite
    (1, np.nan, 0.0),       # output pre-activation non-finite
    (1, 1e300, 0.0),        # finite pre-activations, the loss overflows
])
def test_backward_batch_nonfinite_layer_index(layer, value, y):
    net = network_from_sizes([1, 3, 1], "relu")
    init_params(net, seed=0)
    net.layers[layer].bias[0] = value
    X, Y = np.array([[0.5], [1.0]]), np.array([y, y])
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteLossError) as want:
            ref_backward_batch(net, X, Y)
        with pytest.raises(NonFiniteLossError) as got:
            backward_batch(net, X, Y)
    assert got.value.layer_index == want.value.layer_index


def test_overflowing_finite_sum_is_not_an_abort():
    """Pre-activations whose sum overflows but each finite: gradients as before."""
    net = network_from_sizes([1, 2, 1], "maxout")
    init_params(net, seed=0)
    net.layers[0].bias[:] = [1e308, 1e308, -1e308, -1e308]
    net.layers[1].weight[...] = 0.0
    X, Y = np.array([[0.5], [1.0]]), np.array([0.0, 0.0])
    with np.errstate(all="ignore"):
        want_loss, want = ref_backward_batch(net, X, Y)
        loss, got = backward_batch(net, X, Y)
    assert loss == want_loss
    assert [g.tobytes() for g in got] == [g.tobytes() for g in want]


def test_train_sgd_refuses_data_of_another_width():
    """The bound step has no per-call width check, so training checks once."""
    net = network_from_sizes([3, 4, 1], "relu")
    init_params(net, seed=0)
    with pytest.raises(DimensionMismatchError):
        train_sgd(net, _sgd_data(), TrainConfig(epochs=1))
