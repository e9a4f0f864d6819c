"""Each analysis phase solves its small LPs as one block-diagonal problem and
gets what solving them one at a time gives."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import pwlkit.conventional as conventional
from pwlkit import (
    AffineFunction,
    ConventionalPWL,
    Halfspace,
    Region,
    box_region,
    check_consistent_variation,
    cplr_from_consistent,
)
from pwlkit.cli import main
from pwlkit.formats import save_model
from test_facet_pretest import arrangement_model, signature, triangulated_model

FIXTURES = ["fold3d", "tent_verbatim", "tent_corrected", "plateau2d"]


def solve_one_by_one(blocks):
    """Every LP block in its own ``linprog`` call."""
    out = []
    for c, A_ub, b_ub, bounds in blocks:
        res = conventional.linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds,
                                   method="highs")
        out.append((res.status, res.x))
    return out


def one_by_one(fn, *args, **kwargs):
    """``fn`` run with every LP of every phase solved in its own call."""
    original = conventional.solve_lp_blocks
    conventional.solve_lp_blocks = solve_one_by_one
    try:
        return fn(*args, **kwargs)
    finally:
        conventional.solve_lp_blocks = original


def serial_bounding_box(region):
    """``bounding_box`` as it was before the LPs were batched: 2n calls, each
    bound read from the optimal value."""
    n = region.dim
    A, c = region.matrix_form()
    lo, hi = conventional._default_box(n)
    bounds = list(zip(lo, hi))
    for i in range(n):
        obj = np.zeros(n)
        obj[i] = 1.0
        for sign, store in ((1.0, lo), (-1.0, hi)):
            res = linprog(sign * obj, A_ub=-A, b_ub=-c, bounds=bounds, method="highs")
            if res.status == 0:
                store[i] = sign * res.fun
    return lo, hi


class CountingLinprog:
    def __init__(self, monkeypatch):
        self.calls = 0
        original = conventional.linprog

        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(conventional, "linprog", counting)


def assert_same_box(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def cplr_arrangement(normals, offsets, weights):
    """``sum_k w_k |a_k . x - b_k|`` as a region-wise model over the cells of
    its hyperplanes in [-1, 1]^n: continuous, with consistent variation."""
    cells = arrangement_model(normals, offsets)
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    pieces = []
    for region in cells.regions:
        signs = np.array([h.normal @ a for h, a in zip(region.halfspaces, normals)])
        signs = np.sign(signs) * np.asarray(weights)
        pieces.append(AffineFunction(signs @ normals, -(signs @ offsets)))
    return ConventionalPWL(cells.dim, cells.regions, pieces, domain=cells.domain)


def side_signs(model, centers):
    planes = list(check_consistent_variation(model).hyperplanes.values())
    return np.array([[1.0 if float(alpha @ c - beta) >= 0 else -1.0
                      for alpha, beta, _ in planes] for c, _ in centers])


# ---------------------------------------------------------------------------
# Same bits as one LP per call
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_phases_match_one_lp_per_call(request, fixture):
    model = request.getfixturevalue(fixture)
    if model.domain is not None:
        assert_same_box(conventional.bounding_box(model.domain),
                        serial_bounding_box(model.domain))
    facets = conventional.find_facets(model)
    assert facets
    assert signature(facets) == signature(one_by_one(conventional.find_facets, model))


def _integer_vector(dim, bound):
    return st.lists(st.integers(-bound, bound), min_size=dim, max_size=dim).filter(any)


def _hyperplanes(dim, count, bound):
    # offsets k/8 with |k| <= 6 put every hyperplane through the box
    return st.lists(st.tuples(_integer_vector(dim, bound), st.integers(-6, 6)),
                    min_size=count[0], max_size=count[1])


def _check_arrangement(hyperplanes):
    model = arrangement_model([a for a, _ in hyperplanes], [k / 8 for _, k in hyperplanes])
    assume(len(model.regions) >= 2)
    assert_same_box(model.domain_box(), serial_bounding_box(model.domain))
    assert signature(conventional.find_facets(model)) == \
        signature(one_by_one(conventional.find_facets, model))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_hyperplanes(2, (3, 6), 4))
def test_line_arrangements_match_one_lp_per_call(hyperplanes):
    _check_arrangement(hyperplanes)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(_hyperplanes(3, (3, 4), 3))
def test_plane_arrangements_match_one_lp_per_call(hyperplanes):
    _check_arrangement(hyperplanes)


@pytest.mark.parametrize("seed,interior", [(3, 4), (5, 7), (11, 10)])
def test_triangulations_probe_and_orient_like_one_lp_per_call(seed, interior):
    # every pair of triangles meeting at a vertex only takes the fallback
    # probe, so all three facet phases run
    model = triangulated_model(seed, interior)
    assert signature(conventional.find_facets(model)) == \
        signature(one_by_one(conventional.find_facets, model))


def test_polygon_bounding_box_matches_the_serial_bits():
    rng = np.random.default_rng(5)
    for _ in range(40):
        angles = np.sort(rng.uniform(0, 2 * np.pi, rng.integers(3, 9)))
        normals = -np.column_stack([np.cos(angles), np.sin(angles)])
        normals *= rng.uniform(0.5, 3.0, (len(angles), 1))
        offsets = -rng.uniform(0.2, 3.0, len(angles)) * np.linalg.norm(normals, axis=1)
        polygon = Region([Halfspace(a, b) for a, b in zip(normals, offsets)])
        assert_same_box(conventional.bounding_box(polygon), serial_bounding_box(polygon))


def test_lone_calls_are_single_lps(monkeypatch, plateau2d):
    counter = CountingLinprog(monkeypatch)
    region = plateau2d.regions[0]
    box = plateau2d.domain_box()
    assert counter.calls == 1
    center, radius = conventional.chebyshev_center(region, box=box)
    assert counter.calls == 2
    want = one_by_one(conventional.chebyshev_center, region, box=box)
    assert center.tobytes() == want[0].tobytes() and radius == want[1]


# ---------------------------------------------------------------------------
# Region centers and the cplr side signs
# ---------------------------------------------------------------------------

CPLR_CASES = [
    ([[1, 2], [3, -1], [-2, 1], [1, 1], [4, -3]], [0.25, -0.5, 0.125, 0.0, 0.375],
     [1.0, -0.5, 2.0, 0.75, -1.25]),
    ([[1, 0], [0, 1], [1, 1]], [0.0, 0.25, -0.5], [1.0, 1.0, -2.0]),
    ([[1, 0, 0], [0, 1, 1], [1, -1, 2]], [0.125, 0.0, -0.25], [1.0, -1.0, 0.5]),
]


@pytest.mark.parametrize("normals,offsets,weights", CPLR_CASES)
def test_batched_centers_give_the_per_region_side_signs(normals, offsets, weights):
    model = cplr_arrangement(normals, offsets, weights)
    box = model.domain_box()
    batched = conventional.chebyshev_centers(model.regions, box=box)
    lone = [conventional.chebyshev_center(r, box=box) for r in model.regions]
    for (c, r), (c1, r1), region in zip(batched, lone, model.regions):
        assert r == pytest.approx(r1, abs=1e-12) and r > 0
        assert np.all(np.array([h.margins(c) for h in region.halfspaces])
                      / np.array([np.linalg.norm(h.normal) for h in region.halfspaces])
                      >= r - 1e-12)
    assert np.array_equal(side_signs(model, batched), side_signs(model, lone))
    got = cplr_from_consistent(model)
    want = one_by_one(cplr_from_consistent, model)
    assert (got.alpha0.tobytes(), got.beta0) == (want.alpha0.tobytes(), want.beta0)
    assert [(e, a.tobytes(), b) for e, a, b in got.terms] == \
        [(e, a.tobytes(), b) for e, a, b in want.terms]


def test_fixture_side_signs_match(tent_corrected, fold3d):
    for model in (tent_corrected, fold3d):
        box = model.domain_box()
        batched = conventional.chebyshev_centers(model.regions, box=box)
        lone = [conventional.chebyshev_center(r, box=box) for r in model.regions]
        assert np.array_equal(side_signs(model, batched), side_signs(model, lone))


# ---------------------------------------------------------------------------
# A failing block keeps its own status
# ---------------------------------------------------------------------------

def _block(A, b, n):
    return np.r_[np.zeros(n - 1), -1.0], np.array(A, dtype=float), \
        np.array(b, dtype=float), [(None, None)] * n


def test_failing_blocks_keep_their_status(monkeypatch):
    feasible = _block([[1.0, 1.0], [-1.0, 1.0]], [1.0, 1.0], 2)      # max r: r <= 1 - |x|
    infeasible = _block([[0.0, 1.0], [0.0, -1.0]], [-1.0, -1.0], 2)  # r <= -1 and r >= 1
    unbounded = _block([[1.0, 0.0]], [1.0], 2)                       # r free above
    counter = CountingLinprog(monkeypatch)
    solved = conventional.solve_lp_blocks([feasible, infeasible, unbounded])
    assert [status for status, _ in solved] == [0, 2, 3]
    assert counter.calls == 4           # the joint solve, then one per block
    assert solved[0][1].tobytes() == solve_one_by_one([feasible])[0][1].tobytes()
    assert conventional.solve_lp_blocks([]) == []


def test_empty_domain_keeps_the_default_box():
    empty = Region([Halfspace([1.0, 0.0], 1.0), Halfspace([-1.0, 0.0], 0.0)])
    got = conventional.bounding_box(empty)
    assert_same_box(got, serial_bounding_box(empty))
    assert got[0].tolist() == [-10.0, -10.0] and got[1].tolist() == [10.0, 10.0]


def test_empty_region_has_no_center_among_batched_ones():
    empty = Region([Halfspace([1.0, 0.0], 1.0), Halfspace([-1.0, 0.0], 0.0)])
    full = box_region([-1, -1], [1, 1])
    (_, r_empty), (center, r_full) = conventional.chebyshev_centers([empty, full])
    assert r_empty < 0
    assert np.allclose(center, 0.0) and r_full == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Solves per command
# ---------------------------------------------------------------------------

def test_validate_of_an_18_cell_model_makes_at_most_4_solves(tmp_path, capsys, monkeypatch):
    normals = [[1, 2], [3, -1], [-2, 1], [1, 1], [4, -3], [0, 1]]
    offsets = [0.25, -0.5, 0.125, 0.0, 0.375, -0.7]
    model = cplr_arrangement(normals, offsets, [1.0, -0.5, 2.0, 0.75, -1.25, 0.5])
    assert len(model.regions) == 18
    path = tmp_path / "model.txt"
    save_model(model, path)
    counter = CountingLinprog(monkeypatch)
    assert one_by_one(main, ["validate", "--model", str(path)]) == 0
    lone, counter.calls = counter.calls, 0
    assert main(["validate", "--model", str(path)]) == 0
    assert capsys.readouterr().out.count("consistent-variation: yes") == 2
    assert counter.calls <= 4 < lone
