"""The kernels moved off numpy's slow generic paths give the same bits.

Each reference below is the expression the kernel replaced: the scan's
three-index ``einsum``, AHH design columns rebuilt for every pruning trial,
``np.unique(axis=0)`` over code rows, ``np.max`` over each GHH term's
affine values, ``take_along_axis``/``put_along_axis`` for maxout, and
``_csv_block`` over the meshed grid for ``eval --grid``.
These pin numpy's kernel behaviour, so they are exact comparisons; the one
exception is the sign bit of a NaN, which ``np.max`` sets by the position
of the NaN in its row and ``repr`` never shows.
"""

import numpy as np
import pytest

import pwlkit.learning as L
from pwlkit.affine import AffineFunction, grid_points, mesh_points, stack_affines
from pwlkit.cli import EVAL_BLOCK_ROWS, _csv_block, _grid_axes, _grid_csv
from pwlkit.models import AhhBasis, GhhModel, _row_max
from pwlkit.network import (
    Maxout,
    _distinct_patterns,
    _hidden_codes,
    init_params,
    network_from_sizes,
)

# ---------------------------------------------------------------------------
# Candidate scan
# ---------------------------------------------------------------------------


def ref_scan(B, y, blocks, ridge):
    """``_scan_candidate_blocks`` with the three-index einsum for ``cc``."""
    N, k = B.shape
    _, count, m = blocks.shape
    G = B.T @ B
    gy = B.T @ y
    yy = float(y @ y)
    flat = blocks.reshape(N, count * m)
    cross = (B.T @ flat).reshape(k, count, m).transpose(1, 0, 2)
    cc = np.einsum("nim,nil->iml", blocks, blocks)
    cy = np.einsum("nim,n->im", blocks, y)
    K = np.empty((count, k + m, k + m))
    K[:, :k, :k] = G
    K[:, :k, k:] = cross
    K[:, k:, :k] = cross.transpose(0, 2, 1)
    K[:, k:, k:] = cc
    rhs = np.empty((count, k + m))
    rhs[:, :k] = gy
    rhs[:, k:] = cy
    damp = max(ridge, 1e-12) * np.eye(k + m)
    theta = np.linalg.solve(K + damp, rhs[:, :, None])[:, :, 0]
    return (yy - 2.0 * np.einsum("ij,ij->i", rhs, theta)
            + np.einsum("ij,ijl,il->i", theta, K, theta))


def _scan_cases():
    r = np.random.default_rng(7)
    for m in (1, 2, 3):
        for count in (1, 2, 19):
            for N in (m + 3, 9, 64, 401):
                k = int(r.integers(1, 4))
                B = np.column_stack([r.normal(size=(N, k - 1)), np.ones(N)])
                blocks = r.normal(size=(N, count, m)) * 10.0 ** r.integers(-3, 4)
                if N % 2:
                    np.maximum(blocks, 0.0, out=blocks)     # hinge-like columns
                yield B, r.normal(size=N), blocks


def test_scan_normal_equations_and_sse_are_bit_equal(monkeypatch):
    """Every system handed to the solve, and the SSE, match the reference."""
    solve = np.linalg.solve
    systems = []

    def recording(a, b):
        systems.append((a.tobytes(), b.tobytes()))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    cases = 0
    for B, y, blocks in _scan_cases():
        want = ref_scan(B, y, blocks, 1e-8)
        got = L._scan_candidate_blocks(B, y, blocks, 1e-8)
        assert got.tobytes() == want.tobytes()
        assert systems[-1] == systems[-2]       # K + damp (cc) and rhs (cy)
        cases += 1
    assert cases == 36


def test_ahh_drop_one_refit_matches_rebuilt_columns():
    """Pruning deletes a column of the round's design matrices; the trial
    refit and its validation predictions equal those of columns rebuilt
    from the remaining bases."""
    r = np.random.default_rng(3)
    Xt, Xv = r.uniform(-1.0, 1.0, (300, 3)), r.uniform(-1.0, 1.0, (60, 3))
    yt = np.abs(Xt[:, 0] - Xt[:, 1]) + 0.1 * r.normal(size=300)
    bases = [AhhBasis([(int(r.choice([-1, 1])), int(r.integers(0, 3)),
                        float(r.uniform(-0.5, 0.5))) for _ in range(depth)])
             for depth in (1, 1, 2, 1, 3, 2)]
    C, Cv = L._ahh_columns(Xt, bases), L._ahh_columns(Xv, bases)
    for k in range(len(bases)):
        trial = bases[:k] + bases[k + 1:]
        want_theta, want_sse = L._ahh_refit(Xt, yt, trial, 1e-8)
        theta, sse = L._refit_columns(np.delete(C, k + 1, axis=1), yt, 1e-8)
        assert theta.tobytes() == want_theta.tobytes()
        assert np.float64(sse).tobytes() == np.float64(want_sse).tobytes()
        got = np.delete(Cv, k + 1, axis=1) @ theta
        assert got.tobytes() == (L._ahh_columns(Xv, trial) @ want_theta).tobytes()


# ---------------------------------------------------------------------------
# Pattern dedup
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind, config, sizes", [
    ("relu", {}, [2, 6, 5, 1]),
    ("maxout", {"maxout_k": 3}, [2, 4, 3, 1]),
    ("apl", {"segments": 2}, [2, 5, 1]),
])
def test_distinct_patterns_match_unique_rows(kind, config, sizes):
    net = network_from_sizes(sizes, kind, **config)
    init_params(net, seed=4)
    X = grid_points([-1.0, -1.0], [1.0, 1.0], 41)
    _, per_layer = _hidden_codes(net, X)
    codes = np.concatenate(per_layer, axis=1)
    first = np.sort(np.unique(codes, axis=0, return_index=True)[1])
    got_codes, keys, got = _distinct_patterns(net, X)
    assert len(first) > 1
    assert got.tolist() == first.tolist()
    assert [(c.dtype, c.tobytes()) for c in got_codes] == \
        [(p.dtype, p[first].tobytes()) for p in per_layer]
    assert len(set(keys.tolist())) == len(first)
    # with every row its own group, each row is a first row
    _, _, each = _distinct_patterns(net, X, owner=np.arange(X.shape[0]))
    assert each.tolist() == list(range(X.shape[0]))


def test_distinct_patterns_without_hidden_units():
    net = network_from_sizes([2, 1])
    init_params(net, seed=0)
    X = grid_points([-1.0, -1.0], [1.0, 1.0], 5)
    codes, _, first = _distinct_patterns(net, X)
    assert codes == [] and first.tolist() == [0]
    assert _distinct_patterns(net, X[:0])[2].tolist() == []


# ---------------------------------------------------------------------------
# GHH evaluation
# ---------------------------------------------------------------------------


def ref_ghh_values(model, points):
    out = np.zeros(points.shape[0])
    for w, affines in model.terms:
        J, b = stack_affines(affines)
        out = out + w * np.max(points @ J.T + b, axis=1)
    return out


def _odd_points():
    """Points at which affines tie at 0, or give inf and NaN."""
    return np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-1e-200, -1e-200],
                     [np.nan, 0.0], [0.0, np.nan], [np.inf, 0.0], [-np.inf, 1.0],
                     [np.inf, -np.inf], [np.nan, np.inf]])


def assert_same_bits_but_nan_sign(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("counts", [(1,), (1, 1), (9,), (3, 12), (1, 9, 2)])
def test_ghh_values_match_max(counts):
    r = np.random.default_rng(sum(counts))
    zero = AffineFunction([0.0, 0.0], -0.0)
    terms = [((-1.0) ** t * (t + 0.5),
              [zero] + [AffineFunction(r.integers(-3, 4, 2).astype(float),
                                       float(r.integers(-3, 4)))
                        for _ in range(count - 1)])
             for t, count in enumerate(counts)]
    model = GhhModel(terms)
    points = np.vstack([grid_points([-2.0, -2.0], [2.0, 2.0], 33), _odd_points()])
    with np.errstate(invalid="ignore"):
        for rows in (points, points[:1], points[-1:], points[-3:]):
            assert_same_bits_but_nan_sign(model.values(rows), ref_ghh_values(model, rows))


@pytest.mark.parametrize("columns", [1, 2, 3, 9, 12])
def test_row_max_differs_from_max_only_in_signs_out_cannot_see(columns):
    """Rows of ±0 ties, NaN among finite values, and plain values: the chain
    and np.max agree up to the sign of a zero or NaN, and ``0.0 + w * max``,
    the way GHH terms add up, agrees in every bit but a NaN's sign."""
    r = np.random.default_rng(columns)
    z = r.choice([0.0, -0.0, -1.0, 0.5], size=(400, columns))
    z[::7, r.integers(0, columns)] = np.nan
    z[::5] = r.normal(size=(80, columns))
    got, want = _row_max(z), np.max(z, axis=1)
    assert np.array_equal(got, want, equal_nan=True)
    if columns > 1:
        assert (want == 0.0).any() and np.isnan(want).any()
    for w in (1.0, -2.5, -0.0):
        assert_same_bits_but_nan_sign(0.0 + w * got, 0.0 + w * want)


# ---------------------------------------------------------------------------
# Maxout
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 200])
@pytest.mark.parametrize("batch", [1, 7])
def test_maxout_gather_scatter_match_along_axis(k, batch):
    width = 3
    act = Maxout(width, k)
    r = np.random.default_rng(k + batch)
    z = r.integers(-2, 3, (batch, width * k)).astype(float)    # many ties
    upstream = r.normal(size=(batch, width))
    p = act.pattern(z)
    grouped = z.reshape(batch, width, k)
    want = np.take_along_axis(grouped, p[:, :, None], axis=2)[:, :, 0]
    assert act.apply(z, p).tobytes() == want.tobytes()
    g = np.zeros((batch, width, k))
    np.put_along_axis(g, p[:, :, None], upstream[:, :, None], axis=2)
    got = act.backprop(z, p, upstream)
    assert got.shape == (batch, width * k)
    assert got.tobytes() == g.reshape(batch, width * k).tobytes()


# ---------------------------------------------------------------------------
# eval --grid writer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    "0:1:0.1",                          # 1-D
    "-1:1:0.25,0:3:0.5",                # 2-D
    "0:1:0.5,-1:1:0.4,0.1:0.3:0.1",     # 3-D
    "0.3:0.3:1",                        # a single point
    "-1:1:0.01,0:0.2:0.01",             # more than EVAL_BLOCK_ROWS rows
])
def test_grid_writer_matches_csv_block(spec):
    axes = _grid_axes(spec)
    points = mesh_points(axes)
    values = np.sin(7.3 * points.sum(axis=1))
    table = np.column_stack([points, values])
    want = "".join(_csv_block(table[k:k + EVAL_BLOCK_ROWS])
                   for k in range(0, table.shape[0], EVAL_BLOCK_ROWS))
    assert "".join(_grid_csv(axes, values)) == want
    assert want.count("\n") == points.shape[0]
    if spec.startswith("-1:1:0.01"):
        assert points.shape[0] > EVAL_BLOCK_ROWS
