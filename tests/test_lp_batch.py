"""Each analysis phase solves its small LPs in one call of the vertex kernel
(``solve_lp_blocks``), and every LP gets the bits it gets solved alone and
HiGHS's optimal value to 1e-12."""

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
from pwlkit import transforms
from pwlkit.cli import main
from pwlkit.formats import save_model
from test_facet_pretest import arrangement_model, signature, triangulated_model
from test_input_contract import TRI8

FIXTURES = ["fold3d", "tent_verbatim", "tent_corrected", "plateau2d"]

KERNEL = conventional.solve_lp_blocks


def solve_one_by_one(blocks):
    """Every LP block in its own kernel call."""
    return [KERNEL([block])[0] for block in blocks]


def highs_one_by_one(blocks):
    """Every LP block in its own HiGHS call."""
    out = []
    for c, A_ub, b_ub, bounds in blocks:
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
        out.append((res.status, res.x))
    return out


def solved_by(solver, fn, *args, **kwargs):
    """``fn`` run with every LP of every phase solved by ``solver``."""
    originals = conventional.solve_lp_blocks, transforms.solve_lp_blocks
    conventional.solve_lp_blocks = transforms.solve_lp_blocks = solver
    try:
        return fn(*args, **kwargs)
    finally:
        conventional.solve_lp_blocks, transforms.solve_lp_blocks = originals


def one_by_one(fn, *args, **kwargs):
    """``fn`` run with every LP of every phase solved in its own kernel call."""
    return solved_by(solve_one_by_one, fn, *args, **kwargs)


def serial_bounding_box(region, solve=solve_one_by_one):
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
            ((status, x),) = solve([(sign * obj, -A, -c, bounds)])
            if status == 0:
                store[i] = sign * (0.0 + sign * x[i])
    return lo, hi


class CountingSolves:
    """Counts the kernel's calls with at least one LP (``solve_lp_blocks`` in
    ``conventional`` and ``transforms``) and its HiGHS calls (``linprog``)."""

    def __init__(self, monkeypatch):
        self.calls = self.highs = 0
        original, highs = conventional.solve_lp_blocks, conventional.linprog

        def counting(blocks):
            self.calls += bool(blocks)
            return original(blocks)

        def counting_highs(*args, **kwargs):
            self.highs += 1
            return highs(*args, **kwargs)

        monkeypatch.setattr(conventional, "solve_lp_blocks", counting)
        monkeypatch.setattr(transforms, "solve_lp_blocks", counting)
        monkeypatch.setattr(conventional, "linprog", counting_highs)


def assert_same_box(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def assert_box_near_highs(region):
    got = conventional.bounding_box(region)
    want = serial_bounding_box(region, highs_one_by_one)
    for g, w in zip(got, want):
        assert np.all(np.abs(g - w) <= 1e-12 * np.maximum(1.0, np.abs(w)))


def assert_same_facets(got, want):
    """The same facets, centers and radii included, bit for bit."""
    assert signature(got) == signature(want)
    assert [(f.center.tobytes(), f.radius) for f in got] == \
        [(f.center.tobytes(), f.radius) for f in want]


def assert_facets_near_highs(model, facets):
    """HiGHS finds the same facets, each at the same radius to 1e-12."""
    highs = solved_by(highs_one_by_one, conventional.find_facets, model)
    assert signature(facets) == signature(highs)
    for f, g in zip(facets, highs):
        assert f.radius == pytest.approx(g.radius, rel=1e-12, abs=1e-12)


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
        assert_box_near_highs(model.domain)
    facets = conventional.find_facets(model)
    assert facets
    assert_same_facets(facets, one_by_one(conventional.find_facets, model))
    assert_facets_near_highs(model, facets)


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
    facets = conventional.find_facets(model)
    assert_same_facets(facets, one_by_one(conventional.find_facets, model))
    assert_facets_near_highs(model, facets)


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
    facets = conventional.find_facets(model)
    assert_same_facets(facets, one_by_one(conventional.find_facets, model))
    assert_facets_near_highs(model, facets)


def test_polygon_bounding_box_matches_the_serial_bits(monkeypatch):
    # one kernel call for the 2n LPs of a domain that is not a box, with the
    # bits of 2n lone solves
    rng = np.random.default_rng(5)
    for _ in range(40):
        angles = np.sort(rng.uniform(0, 2 * np.pi, rng.integers(3, 9)))
        normals = -np.column_stack([np.cos(angles), np.sin(angles)])
        normals *= rng.uniform(0.5, 3.0, (len(angles), 1))
        offsets = -rng.uniform(0.2, 3.0, len(angles)) * np.linalg.norm(normals, axis=1)
        polygon = Region([Halfspace(a, b) for a, b in zip(normals, offsets)])
        with monkeypatch.context() as patch:
            counter = CountingSolves(patch)
            got = conventional.bounding_box(polygon)
        assert (counter.calls, counter.highs) == (1, 0)
        assert_same_box(got, serial_bounding_box(polygon))
        assert_box_near_highs(polygon)


def test_lone_calls_are_single_lps(monkeypatch, plateau2d):
    counter = CountingSolves(monkeypatch)
    region = plateau2d.regions[0]
    box = plateau2d.domain_box()
    assert counter.calls == 1
    center, radius = conventional.chebyshev_center(region, box=box)
    assert (counter.calls, counter.highs) == (2, 0)
    want = one_by_one(conventional.chebyshev_center, region, box=box)
    assert center.tobytes() == want[0].tobytes() and radius == want[1]
    highs = solved_by(highs_one_by_one, conventional.chebyshev_center, region, box=box)
    assert radius == pytest.approx(highs[1], rel=1e-12)


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
    # the same failures with rows of full rank, so each has vertices
    pointed_infeasible = _block([[1.0, 1.0], [-1.0, 1.0], [0.0, -1.0]], [1.0, 1.0, -2.0], 2)
    ray = _block([[-1.0, 1.0], [1.0, 1.0], [0.0, -1.0]], [0.0, 0.0, 0.0], 2)  # r <= -|x|, r >= 0
    wedge = _block([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0], 2)       # x >= 0, r >= 0
    counter = CountingSolves(monkeypatch)
    blocks = [feasible, infeasible, unbounded, pointed_infeasible, ray, wedge]
    solved = conventional.solve_lp_blocks(blocks)
    assert [status for status, _ in solved] == [0, 2, 3, 2, 0, 3]
    assert [status for status, _ in highs_one_by_one(blocks)] == [0, 2, 3, 2, 0, 3]
    # one kernel call; the two blocks whose rows have rank 1 have no vertex
    # and go to HiGHS
    assert (counter.calls, counter.highs) == (1, 2)
    assert solved[0][1].tobytes() == solve_one_by_one([feasible])[0][1].tobytes()
    assert solved[0][1].tolist() == [0.0, 1.0] and solved[4][1].tolist() == [0.0, 0.0]
    assert [x for status, x in solved if status != 0] == [None] * 4
    assert conventional.solve_lp_blocks([]) == []


def test_empty_domain_keeps_the_default_box():
    empty = Region([Halfspace([1.0, 0.0], 1.0), Halfspace([-1.0, 0.0], 0.0)])
    got = conventional.bounding_box(empty)
    assert_same_box(got, serial_bounding_box(empty))
    assert_same_box(got, serial_bounding_box(empty, highs_one_by_one))
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
    lone = []
    assert solved_by(lambda blocks: lone.extend(blocks) or solve_one_by_one(blocks),
                     main, ["validate", "--model", str(path)]) == 0
    counter = CountingSolves(monkeypatch)
    assert main(["validate", "--model", str(path)]) == 0
    assert capsys.readouterr().out.count("consistent-variation: yes") == 2
    assert counter.calls <= 4 < len(lone) and counter.highs == 0


def test_lattice_of_a_model_with_empty_regions_makes_one_solve(tmp_path, capsys,
                                                               monkeypatch):
    # two regions of tri8 moved off the box: their LPs are infeasible, and
    # the other LPs of the lattice step stay in the same kernel call
    path = tmp_path / "gap.txt"
    path.write_text(TRI8.replace("H: normal=-1.0,1.0 offset=-0.0",
                                 "H: normal=-1.0,1.0 offset=3"))
    counter = CountingSolves(monkeypatch)
    lattice_calls = []
    solve = transforms.solve_lp_blocks
    monkeypatch.setattr(transforms, "solve_lp_blocks",
                        lambda blocks: lattice_calls.append(blocks) or solve(blocks))
    assert main(["convert", "--model", str(path), "--to", "lattice",
                 "--out", str(tmp_path / "out.txt")]) == 2
    assert "no region contains the point" in capsys.readouterr().err
    assert len(lattice_calls) == 1 and counter.highs == 0
    statuses = [status for status, _ in KERNEL(lattice_calls[0])]
    assert statuses.count(2) == 2 * 7 and set(statuses) == {0, 2}
