"""Lattice rows from one LP per (region, piece) pair.

The max-min form of a continuous model whose regions tile a box matches the
model everywhere when no piece crosses piece i inside region i (each region
is a unique-order region, as in Tarela & Martinez): complete hyperplane
arrangements with canonical pieces in one to three variables, and such
triangulations.  Where a piece does cross, the region rows can exceed the
model, and a conversion the check sees deviate is refused."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from pwlkit import (AffineFunction, ConstructionError, ConventionalPWL, Halfspace, Region,
                    box_region)
from pwlkit.affine import grid_points
from pwlkit.conventional import chebyshev_centers
from pwlkit.transforms import lattice_from_conventional

# grid points per axis of the dense check, by dimension
DENSE = {1: 4001, 2: 201, 3: 41}


def complete_arrangement(normals, offsets, gains, bias):
    """``bias + sum_k g_k |a_k . x - b_k|`` over every cell its hyperplanes
    cut from [-1, 1]^n.

    Every sign vector whose Chebyshev radius within the box is positive is a
    region, so no cell is missing, however thin, and the regions tile the
    box.
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    gains = np.asarray(gains, dtype=float)
    n = normals.shape[1]
    box = (np.full(n, -1.0), np.full(n, 1.0))
    signs = [np.array(s) for s in itertools.product((1.0, -1.0), repeat=len(offsets))]
    cells = [Region([Halfspace(s_k * a, s_k * b) for s_k, a, b in zip(s, normals, offsets)],
                    label=k) for k, s in enumerate(signs)]
    kept = [k for k, (_, radius) in enumerate(chebyshev_centers(cells, box=box))
            if radius > 1e-7]
    pieces = [AffineFunction((gains * signs[k]) @ normals, bias - (gains * signs[k]) @ offsets)
              for k in kept]
    return ConventionalPWL(n, [cells[k] for k in kept], pieces, domain=box_region(*box))


def delaunay_model(interior, heights):
    """Delaunay triangles of the square's corners and the ``interior``
    points, each piece interpolating the ``heights`` at its triangle's
    corners, and the corners of each triangle."""
    P = np.vstack([[[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]], interior])
    regions, pieces, triangles = [], [], []
    for k, tri in enumerate(Delaunay(P).simplices):
        corners = np.column_stack([P[tri], np.ones(3)])
        triangles.append(P[tri])
        hs = []
        for e in range(3):
            u, v = sorted((tri[e], tri[(e + 1) % 3]))
            normal = np.array([P[v, 1] - P[u, 1], P[u, 0] - P[v, 0]])
            offset = float(normal @ P[u])
            if normal @ P[tri[(e + 2) % 3]] < offset:
                normal, offset = -normal, -offset
            hs.append(Halfspace(normal, offset))
        regions.append(Region(hs, label=k))
        coef = np.linalg.solve(corners, np.asarray(heights, dtype=float)[tri])
        pieces.append(AffineFunction(coef[:2], coef[2]))
    return ConventionalPWL(2, regions, pieces, domain=box_region([-1, -1], [1, 1])), triangles


def assert_lattice_matches(model):
    lattice = lattice_from_conventional(model)
    pts = grid_points(*model.domain_box(), DENSE[model.dim])
    assert np.max(np.abs(lattice.values(pts) - model.values(pts))) <= 1e-9


def _arrangement(dim, count):
    # integer normals and offsets k/8 with |k| <= 6 put every hyperplane
    # through the box; the gains are nonzero eighths
    plane = st.tuples(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any),
                      st.integers(-6, 6), st.integers(-16, 16).filter(bool))
    return st.tuples(st.lists(plane, min_size=count[0], max_size=count[1]),
                     st.integers(-8, 8))


def _check_arrangement(spec):
    planes, bias = spec
    model = complete_arrangement([a for a, _, _ in planes], [k / 8 for _, k, _ in planes],
                                 [g / 8 for _, _, g in planes], bias / 8)
    assert_lattice_matches(model)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(_arrangement(1, (1, 4)))
def test_interval_arrangements_give_exact_lattices(spec):
    _check_arrangement(spec)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(_arrangement(2, (2, 5)))
def test_line_arrangements_give_exact_lattices(spec):
    _check_arrangement(spec)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(_arrangement(3, (2, 4)))
def test_plane_arrangements_give_exact_lattices(spec):
    _check_arrangement(spec)


def crosses_a_piece(model, triangles):
    """Whether some piece crosses the piece of some triangle inside it, which
    the triangle's corners decide: that region is then not a unique-order
    region."""
    J = np.array([p.jacobian for p in model.pieces])
    b = np.array([p.bias for p in model.pieces])
    for i, V in enumerate(triangles):
        gap = V @ J.T + b - (V @ J[i] + b[i])[:, None]
        if np.any((gap.min(axis=0) < -1e-9) & (gap.max(axis=0) > 1e-9)):
            return True
    return False


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-7, 7), st.integers(-7, 7)), min_size=1, max_size=6,
                unique=True).flatmap(lambda pts: st.tuples(
                    st.just(pts), st.lists(st.integers(-8, 8), min_size=len(pts) + 4,
                                           max_size=len(pts) + 4))))
def test_delaunay_triangulations_give_exact_lattices_or_fail_the_check(spec):
    points, heights = spec
    model, triangles = delaunay_model(np.array(points) / 8, np.array(heights) / 8)
    assume(min(abs(np.linalg.det(np.column_stack([V, np.ones(3)]))) for V in triangles) > 1e-3)
    if crosses_a_piece(model, triangles):
        try:
            assert_lattice_matches(model)
        except ConstructionError:
            pass
    else:
        assert_lattice_matches(model)


def test_a_crossing_piece_fails_the_check_instead_of_giving_a_wrong_lattice():
    # piece 6, -2 x1 - x2, crosses piece 1, zero, inside region 1, the
    # bottom triangle, so row 1 leaves it out; at (0.06, -0.06), in region 6,
    # the model is -0.06 and every piece of row 1 is zero
    model, _ = delaunay_model(np.array([[0, 0], [0, -1], [1, -2], [0, 1]]) / 8,
                           np.array([0, 0, 0, 0, 0, 0, 0, -1]) / 8)
    with pytest.raises(ConstructionError, match="max deviation 6.250e-02"):
        lattice_from_conventional(model)


def test_a_box_that_meets_no_region_is_refused(tent_corrected):
    with pytest.raises(ConstructionError, match="no region meets the box"):
        lattice_from_conventional(tent_corrected, box=(np.array([6.0]), np.array([7.0])))
