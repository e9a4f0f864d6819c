"""``check_continuity`` compares two pieces on five points of the diameter
of their facet along which they drift apart fastest, and every facet LP of
a pass is one solve."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

import pwlkit.conventional as conventional
from pwlkit import (
    AffineFunction,
    ConventionalPWL,
    Halfspace,
    Region,
    box_region,
    check_continuity,
)
from pwlkit.affine import halton
from pwlkit.cli import main
from pwlkit.conventional import CONTINUITY_RTOL
from test_facet_pretest import reference_find_facets, signature
from test_lp_batch import cplr_arrangement

ARR3D = Path(__file__).parent / "data" / "arr3d.txt"


def five_sample_verdicts(model, facets):
    """Per facet, whether the pieces disagreed on any of the five points the
    check compared them on before: the center, and four points within 0.8 of
    the facet's radius, evenly spaced on a segment, Halton points otherwise."""
    verdicts = []
    for f in facets:
        tangent = null_space(f.alpha[None, :])
        k = tangent.shape[1]
        pts = [f.center]
        if k and f.radius > 0:
            reach = 0.8 * f.radius
            if k == 1:
                offs = np.linspace(-reach, reach, 4)[:, None]
            else:
                offs = (2.0 * halton(4, k, seed=7) - 1.0) * reach / np.sqrt(k)
            pts += [f.center + tangent @ t for t in offs]
        pts = np.array(pts)
        vi = model.pieces[f.i].values(pts)
        vj = model.pieces[f.j].values(pts)
        scale = np.maximum(1.0, np.maximum(np.abs(vi), np.abs(vj)))
        bad = np.abs(vi - vj) > CONTINUITY_RTOL * scale
        verdicts.append(bool(np.any(bad)))
    return verdicts


# Each family breaks piece 0 of a continuous arrangement, or leaves it: a
# bias jump, or a Jacobian perturbation eps u that keeps the piece at its
# region's center, so along each facet the pieces drift apart by eps times
# u's component within the hyperplane.  1e-9 is the tolerance itself.  A
# pivot turns the piece by eps about the center of its first facet, within
# that facet's hyperplane, so there the pieces agree at the center only; a
# steep pivot also adds a jump of 1e6 (per unit of the arrangement before it
# is stretched) along the hyperplane's normal, which leaves the piece
# unchanged on the hyperplane.
FAMILIES = {
    "continuous": (None, [0.0]),
    "bias": ("bias", [1e-6, 0.3]),
    "jacobian": ("jacobian", [1e-3, 1e-6, 1e-11]),
    "at-tolerance": ("jacobian", [1e-9]),
    "pivot": ("pivot", [1e-3, 1e-6, 1e-9, 1e-11]),
    "steep-pivot": ("steep-pivot", [1e-3, 1e-6, 1e-9, 1e-11]),
}
STEEP = 1e6
# an arrangement within [-1, 1]^n, or stretched to the default box
# [-10, 10]^n, the widest an analysis works in: wide facets
SCALES = (1.0, conventional.DEFAULT_BOX_HALFWIDTH)


def widened(model, scale):
    """``x -> model(x / scale)`` on the domain stretched by ``scale``."""
    regions = [Region([Halfspace(h.normal, h.offset * scale) for h in r.halfspaces],
                      r.label) for r in model.regions]
    pieces = [AffineFunction(p.jacobian / scale, p.bias) for p in model.pieces]
    lo, hi = model.domain_box()
    return ConventionalPWL(model.dim, regions, pieces,
                           domain=box_region(lo * scale, hi * scale))


def broken(model, facets, how, eps, u):
    pieces = list(model.pieces)
    p = pieces[0]
    u = np.asarray(u, dtype=float) / np.linalg.norm(u)
    if how == "bias":
        pieces[0] = AffineFunction(p.jacobian, p.bias + eps)
    elif how == "jacobian":
        center, _ = conventional.chebyshev_center(model.regions[0], box=model.domain_box())
        pieces[0] = AffineFunction(p.jacobian + eps * u, p.bias - eps * float(u @ center))
    elif how in ("pivot", "steep-pivot"):
        f = next((f for f in facets if 0 in (f.i, f.j)), None)
        assume(f is not None)
        tangent = null_space(f.alpha[None, :])
        w = tangent.T @ u
        t = tangent @ (w / np.linalg.norm(w) if np.linalg.norm(w) > 0.1 else np.eye(len(w))[0])
        c = STEEP / model.domain_box()[1][0] if how == "steep-pivot" else 0.0
        pieces[0] = AffineFunction(p.jacobian + eps * t + c * f.alpha,
                                   p.bias - eps * float(t @ f.center) - c * f.beta)
    return ConventionalPWL(model.dim, model.regions, pieces, domain=model.domain)


def _integer_vector(dim, bound):
    return st.lists(st.integers(-bound, bound), min_size=dim, max_size=dim).filter(any)


def _case(dim, count, bound):
    # offsets k/8 with |k| <= 6 put every hyperplane through the box
    return st.tuples(
        st.lists(st.tuples(_integer_vector(dim, bound), st.integers(-6, 6),
                           st.sampled_from([1.0, -0.5, 2.0, 0.75])),
                 min_size=count[0], max_size=count[1]),
        st.integers(0, 3),
        st.lists(st.floats(-1, 1), min_size=dim, max_size=dim).filter(
            lambda u: np.linalg.norm(u) > 0.1))


def _check(case):
    """Every family on one arrangement at both scales; the facets depend on
    the regions alone, so each scale's are searched once."""
    hyperplanes, which, u = case
    model = cplr_arrangement([a for a, _, _ in hyperplanes],
                             [k / 8 for _, k, _ in hyperplanes],
                             [w for _, _, w in hyperplanes])
    assume(len(model.regions) >= 2)
    for scale in SCALES:
        stretched = widened(model, scale)
        facets = conventional.find_facets(stretched)
        assert signature(facets) == signature(reference_find_facets(stretched))
        for family, (how, sizes) in FAMILIES.items():
            broke = broken(stretched, facets, how, sizes[which % len(sizes)], u)
            _check_one(broke, facets, family, scale)


def _check_one(model, facets, family, scale):
    report = check_continuity(model)
    assert signature(report.facets) == signature(facets)
    pairs = [(f.i, f.j) for f in report.facets]
    assert len(set(pairs)) == len(pairs)
    flagged = {(v.region_i, v.region_j) for v in report.violations}
    assert len(flagged) == len(report.violations)       # one violation per facet
    sampled = set()
    for f, anywhere in zip(report.facets, five_sample_verdicts(model, report.facets)):
        got = (f.i, f.j) in flagged
        if model.dim == 2:
            # the same five points
            assert got == anywhere
        else:
            # the rims of the diameter where the pieces drift apart fastest
            assert got >= anywhere
        if anywhere:
            sampled.add((f.i, f.j))
    if family != "at-tolerance" and scale == 1.0:
        assert flagged == sampled
    if family == "continuous":
        assert not flagged


@settings(max_examples=10, deadline=None, derandomize=True)
@given(_case(2, (3, 5), 4))
def test_line_arrangement_verdicts_match_the_five_samples(case):
    _check(case)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(_case(3, (3, 4), 3))
def test_plane_arrangement_verdicts_match_the_five_samples(case):
    _check(case)


# ---------------------------------------------------------------------------
# Pieces that agree at the facet's center only
# ---------------------------------------------------------------------------

def crossing_model(dim):
    """Two half-boxes split at x1 = 0 whose pieces are x2 and -x2: they agree
    on the facet's center line x2 = 0, and nowhere else on it."""
    e1 = np.eye(dim)[0]
    slope = np.eye(dim)[1]
    regions = [Region([Halfspace(e1, 0.0)], 0), Region([Halfspace(-e1, 0.0)], 1)]
    pieces = [AffineFunction(slope, 0.0), AffineFunction(-slope, 0.0)]
    return ConventionalPWL(dim, regions, pieces,
                           domain=box_region([-1.0] * dim, [1.0] * dim))


@pytest.mark.parametrize("dim", [2, 3])
def test_pieces_agreeing_at_the_center_only_are_flagged(dim):
    model = crossing_model(dim)
    report = check_continuity(model)
    ((facet,), (v,)) = report.facets, report.violations
    assert model.pieces[0].value(facet.center) == model.pieces[1].value(facet.center)
    assert (v.region_i, v.region_j) == (0, 1)
    assert abs(v.point[1]) == pytest.approx(0.8 * facet.radius)
    assert v.value_i == pytest.approx(v.point[1])
    assert v.value_j == pytest.approx(-v.point[1])


@pytest.mark.parametrize("dim", [2, 3])
def test_a_steep_normal_jump_does_not_hide_an_in_plane_one(dim):
    """Pieces 1e6 x1 + 5e-4 x2 and 0 agree at the center of their facet
    x1 = 0 and differ by 4e-4 on its rim, 400,000 times the tolerance."""
    model = crossing_model(dim)
    e1, e2 = np.eye(dim)[:2]
    model = ConventionalPWL(dim, model.regions,
                            [AffineFunction(1e6 * e1 + 5e-4 * e2, 0.0),
                             AffineFunction(np.zeros(dim), 0.0)], domain=model.domain)
    report = check_continuity(model)
    ((facet,), (v,)) = report.facets, report.violations
    assert abs(v.point[1]) == pytest.approx(0.8 * facet.radius)
    assert abs(v.value_i - v.value_j) == pytest.approx(4e-4)


# ---------------------------------------------------------------------------
# One facet solve per pass
# ---------------------------------------------------------------------------

def test_3d_validate_makes_one_facet_solve(monkeypatch, capsys):
    calls = {"all": 0, "facet": 0, "highs": 0}
    facet_phase = []
    solve, facet_interiors = conventional.solve_lp_blocks, conventional._facet_interiors
    linprog = conventional.linprog

    def counting_solve(blocks):     # a call with no LP solves nothing
        calls["all"] += bool(blocks)
        calls["facet"] += bool(blocks) and bool(facet_phase)
        return solve(blocks)

    def counting_linprog(*args, **kwargs):
        calls["highs"] += 1
        return linprog(*args, **kwargs)

    def marked_facet_interiors(*args, **kwargs):
        facet_phase.append(True)
        try:
            return facet_interiors(*args, **kwargs)
        finally:
            facet_phase.pop()

    monkeypatch.setattr(conventional, "solve_lp_blocks", counting_solve)
    monkeypatch.setattr(conventional, "linprog", counting_linprog)
    monkeypatch.setattr(conventional, "_facet_interiors", marked_facet_interiors)
    assert main(["validate", "--model", str(ARR3D)]) == 0
    out = capsys.readouterr().out
    assert "facets: 24\ncontinuity-violations: 0\n" in out
    assert "consistent-variation: yes" in out
    # the domain's box, the facets; no LP goes to HiGHS
    assert calls == {"all": 2, "facet": 1, "highs": 0}


def test_pieces_that_overflow_to_nan_on_the_facet_are_flagged():
    """Pieces 1e308 x1 - 1e308 x2 and 1e308 x1 - 0.9e308 x2 split at x1 = x2
    on [-10, 10]^2 agree at the facet's center and drift apart along it, but
    at its four other points both products overflow, so each piece is NaN or
    infinite there (as the BLAS sums them) and their difference is NaN."""
    regions = [Region([Halfspace([1.0, -1.0], 0.0)], 0),
               Region([Halfspace([-1.0, 1.0], 0.0)], 1)]
    pieces = [AffineFunction([1e308, -1e308], 0.0), AffineFunction([1e308, -0.9e308], 0.0)]
    model = ConventionalPWL(2, regions, pieces, domain=box_region([-10.0] * 2, [10.0] * 2))
    with np.errstate(over="ignore", invalid="ignore"):
        report = check_continuity(model)
    ((facet,), (v,)) = report.facets, report.violations
    assert (v.region_i, v.region_j) == (0, 1)
    assert np.isnan(v.value_i - v.value_j)
    assert np.linalg.norm(v.point - facet.center) == pytest.approx(0.8 * facet.radius)
