"""Facet search skips region pairs that carry two non-parallel shared
hyperplanes with opposite orientation, and finds exactly the facets the
all-LP search finds."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

import pwlkit.conventional as conventional
from pwlkit import AffineFunction, ConventionalPWL, Halfspace, Region, box_region
from pwlkit.conventional import Facet, hyperplane_key


def reference_find_facets(model):
    """The all-LP search ``find_facets`` ran before the pre-test: one facet LP
    for every hyperplane a pair carries with opposite orientation."""
    box = model.domain_box()
    regions = model.regions
    canon = [[h.canonical() for h in r.halfspaces] for r in regions]
    centers = {}
    facets = []
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            joint = Region(regions[i].halfspaces + regions[j].halfspaces)
            candidates = {}
            for ai, bi, si in canon[i]:
                for aj, bj, sj in canon[j]:
                    if si * sj < 0 and abs(bi - bj) <= 1e-9 and \
                            np.all(np.abs(ai - aj) <= 1e-9):
                        candidates[hyperplane_key(ai, bi)] = (ai, bi, si)
            if not candidates:
                tight = conventional._tight_hyperplanes(
                    joint, canon[i] + canon[j],
                    *conventional.chebyshev_center(joint, box=box))
                for alpha, beta in tight:
                    if i not in centers:
                        centers[i], _ = conventional.chebyshev_center(regions[i], box=box)
                    ci = centers[i]
                    side_i = 1.0 if ci is not None and float(alpha @ ci - beta) >= 0 \
                        else -1.0
                    candidates[hyperplane_key(alpha, beta)] = (alpha, beta, side_i)
            for alpha, beta, side_i in candidates.values():
                center, radius = reference_facet_interior(alpha, beta, joint, box)
                if center is not None:
                    facets.append(Facet(i, j, alpha, float(beta), side_i, center, radius))
    return facets


def reference_facet_interior(alpha, beta, joint, box):
    """A facet's ``(center, radius)`` from its own LP solved alone, or
    ``(None, -inf)`` where there is none."""
    x0, N, block = conventional._facet_lp(alpha, beta, joint, box)
    if block is None:
        return (None, -np.inf) if x0 is None else (x0, 0.0)
    k = N.shape[1]
    ((status, x),) = conventional.solve_lp_blocks([block])
    if status != 0 or float(x[k]) < conventional.FEASIBILITY_TOL:
        return None, -np.inf
    return x0 + N @ x[:k], float(x[k])


def signature(facets):
    """The decision fields ``(i, j, alpha, beta, side_i)`` of every facet, in
    order, as bytes.  A facet's center and radius are not compared: its LP
    solved jointly with others can return another deepest point."""
    return [(f.i, f.j, f.alpha.tobytes(), np.float64(f.beta).tobytes(),
             np.float64(f.side_i).tobytes()) for f in facets]


def compare(model):
    """Facets of both searches (asserted equal) and the facet LPs each posed
    (``_facet_lp`` calls)."""
    calls = []
    original = conventional._facet_lp

    def counting(*args, **kwargs):
        calls[-1] += 1
        return original(*args, **kwargs)

    conventional._facet_lp = counting
    try:
        calls.append(0)
        want = reference_find_facets(model)
        calls.append(0)
        got = conventional.find_facets(model)
    finally:
        conventional._facet_lp = original
    assert signature(got) == signature(want)
    return got, calls[0], calls[1]


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def arrangement_model(normals, offsets, merges=0):
    """Cells of a hyperplane arrangement within [-1, 1]^n as a region-wise model.

    Each cell met by a sample grid is given by its sign vector, one closed
    halfspace per hyperplane.  The first ``merges`` disjoint pairs of cells
    whose sign vectors differ in one place are merged by dropping that
    hyperplane from the pair.
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    n = normals.shape[1]
    axis = np.linspace(-0.99, 0.99, 41 if n == 2 else 17) + 1e-3 * np.sqrt(2)
    pts = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), -1).reshape(-1, n)
    margins = pts @ normals.T - offsets
    margins = margins[np.all(margins != 0, axis=1)]
    cells = [list(s) for s in np.unique(np.sign(margins).astype(int), axis=0)]
    merged, used = [], set()
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            if len(merged) == merges or a in used or b in used:
                continue
            diff = np.flatnonzero(np.array(cells[a]) != np.array(cells[b]))
            if diff.size == 1:
                cell = list(cells[a])
                cell[diff[0]] = 0
                merged.append(cell)
                used |= {a, b}
    cells = merged + [c for k, c in enumerate(cells) if k not in used]
    regions = [Region([Halfspace(s * a, s * b)
                       for s, a, b in zip(cell, normals, offsets) if s], label=k)
               for k, cell in enumerate(cells)]
    pieces = [AffineFunction(np.zeros(n), float(k)) for k in range(len(cells))]
    return ConventionalPWL(n, regions, pieces,
                           domain=box_region([-1.0] * n, [1.0] * n))


def triangulated_model(seed=3, interior=4):
    """Delaunay triangles of the square's corners and random interior points.

    Two triangles share at most one edge and, the points being generic, no
    other line, so every pair meeting at a vertex only takes the fallback
    probe.
    """
    rng = np.random.default_rng(seed)
    P = np.vstack([[[-1, -1], [1, -1], [1, 1], [-1, 1]],
                   rng.uniform(-0.8, 0.8, (interior, 2))])
    regions, pieces = [], []
    for k, tri in enumerate(Delaunay(P).simplices):
        hs = []
        for e in range(3):
            u, v = sorted((tri[e], tri[(e + 1) % 3]))
            normal = np.array([P[v, 1] - P[u, 1], P[u, 0] - P[v, 0]])
            offset = float(normal @ P[u])
            if normal @ P[tri[(e + 2) % 3]] < offset:
                normal, offset = -normal, -offset
            hs.append(Halfspace(normal, offset))
        regions.append(Region(hs, label=k))
        pieces.append(AffineFunction([0.0, 0.0], float(k)))
    return ConventionalPWL(2, regions, pieces, domain=box_region([-1, -1], [1, 1]))


def near_duplicate_walls():
    """Region 0 carries the wall x = 1 twice, the copies 6e-10 apart (two
    hyperplane keys), region 1 carries it once: the parallel candidates keep
    their facet LPs."""
    left = Region([Halfspace([-1.0, 0.0], -1.0)], 1)
    right = Region([Halfspace([1.0, 0.0], 1.0), Halfspace([1.0, 0.0], 1.0 + 6e-10)], 0)
    return ConventionalPWL(2, [left, right],
                           [AffineFunction([1.0, 0.0], 0.0), AffineFunction([1.0, 0.0], 0.0)],
                           domain=box_region([-2, -2], [3, 2]))


GENERIC_LINES = ([[1, 2], [3, -1], [-2, 1], [1, 1], [4, -3]],
                 [0.25, -0.5, 0.125, 0.0, 0.375])


# ---------------------------------------------------------------------------
# Same facets as the all-LP search
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture", ["fold3d", "tent_verbatim", "tent_corrected",
                                     "plateau2d"])
def test_fixture_facets_match_the_all_lp_search(request, fixture):
    facets, ref_calls, calls = compare(request.getfixturevalue(fixture))
    assert facets and calls <= ref_calls


def test_near_duplicate_walls_keep_their_lps():
    facets, ref_calls, calls = compare(near_duplicate_walls())
    assert calls == ref_calls == 2
    assert len(facets) == 2


def test_arrangement_makes_one_facet_lp_per_facet():
    facets, ref_calls, calls = compare(arrangement_model(*GENERIC_LINES))
    assert calls == len(facets) < ref_calls


def test_merged_arrangement_matches_the_all_lp_search():
    facets, _, _ = compare(arrangement_model(*GENERIC_LINES, merges=3))
    assert facets


def test_fallback_triangulation_makes_the_same_lps():
    model = triangulated_model()
    facets, ref_calls, calls = compare(model)
    assert calls == ref_calls > len(facets)
    edges = sum(len(r.halfspaces) for r in model.regions)
    assert len(facets) == (edges - 4) // 2       # every inner edge, once


def _integer_vector(dim, bound):
    return st.lists(st.integers(-bound, bound), min_size=dim, max_size=dim).filter(any)


def _arrangement(dim, count, bound):
    # offsets k/8 with |k| <= 6 and integer normals put every hyperplane
    # within 0.75 of the origin, through the box
    return st.tuples(st.lists(st.tuples(_integer_vector(dim, bound), st.integers(-6, 6)),
                              min_size=count[0], max_size=count[1]),
                     st.integers(0, 2))


def _check_arrangement(spec):
    hyperplanes, merges = spec
    normals = [a for a, _ in hyperplanes]
    model = arrangement_model(normals, [k / 8 for _, k in hyperplanes], merges)
    assume(len(model.regions) >= 2)
    facets, ref_calls, calls = compare(model)
    generic = all(np.linalg.matrix_rank(np.array([a, b], dtype=float)) == 2
                  for k, a in enumerate(normals) for b in normals[k + 1:])
    if generic and merges == 0:
        assert calls == len(facets)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_arrangement(2, (3, 5), 4))
def test_line_arrangements_match_the_all_lp_search(spec):
    _check_arrangement(spec)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(_arrangement(3, (3, 4), 3))
def test_plane_arrangements_match_the_all_lp_search(spec):
    _check_arrangement(spec)
