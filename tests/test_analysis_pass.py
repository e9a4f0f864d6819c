"""One analysis pass per region-wise model: facets found once, the analysis
box computed once, and first-hit evaluation as one vectorised membership test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pwlkit.conventional as conventional
from pwlkit import (
    AffineFunction,
    ConventionalPWL,
    CoverageGapError,
    Halfspace,
    Region,
    box_region,
    check_consistent_variation,
    check_continuity,
)
from pwlkit.cli import main
from pwlkit.conventional import FEASIBILITY_TOL
from pwlkit.formats import save_model


def first_hit_reference(model, points):
    """The per-point loop ``ConventionalPWL.values`` ran before it was vectorised:
    the first region containing the point exactly, else the first within
    ``FEASIBILITY_TOL``, else ``CoverageGapError`` on that point."""
    out = []
    for k, x in enumerate(points):
        for tol in (0.0, FEASIBILITY_TOL):
            hits = [i for i, r in enumerate(model.regions)
                    if r.contains_many(points[k:k + 1], tol)[0]]
            if hits:
                break
        else:
            raise CoverageGapError(x)
        out.append(model.pieces[hits[0]].values(points[k:k + 1])[0])
    return np.array(out)


def assert_same_first_hit(model, points):
    try:
        want = first_hit_reference(model, points)
    except CoverageGapError as gap:
        with pytest.raises(CoverageGapError) as err:
            model.values(points)
        assert np.array_equal(err.value.point, gap.point)
        return
    assert np.array_equal(model.values(points), want)


# ---------------------------------------------------------------------------
# One facet pass and one analysis box per CLI command
# ---------------------------------------------------------------------------

@pytest.fixture
def counted(monkeypatch):
    calls = {"find_facets": 0, "bounding_box": 0}
    for name in calls:
        original = getattr(conventional, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(conventional, name, wrapper)
    return calls


@pytest.mark.parametrize("fixture", ["tent_corrected", "plateau2d", "fold3d"])
@pytest.mark.parametrize("argv", [["validate"],
                                  ["convert", "--to", "cplr"],
                                  ["convert", "--to", "lattice"]])
def test_cli_runs_one_facet_pass_and_one_box(request, tmp_path, capsys, counted,
                                             fixture, argv):
    path = tmp_path / "model.txt"
    save_model(request.getfixturevalue(fixture), path)
    extra = ["--out", str(tmp_path / "out.txt")] if argv[0] == "convert" else []
    code = main(argv + ["--model", str(path)] + extra)
    capsys.readouterr()
    assert code in (0, 4)           # plateau2d has no canonical form
    assert counted == {"find_facets": 1, "bounding_box": 1}


def test_domain_box_is_computed_once_and_read_only(counted, plateau2d):
    lo, hi = plateau2d.domain_box()
    assert plateau2d.domain_box()[0] is lo
    assert counted["bounding_box"] == 1
    assert np.allclose(lo, [-2, -2]) and np.allclose(hi, [2, 2])
    with pytest.raises(ValueError):
        lo[0] = 0.0


def test_model_without_domain_analyses_the_default_box(counted, tent_corrected):
    m = ConventionalPWL(1, tent_corrected.regions, tent_corrected.pieces)
    lo, hi = m.domain_box()
    assert lo.tolist() == [-10.0] and hi.tolist() == [10.0]
    assert counted["bounding_box"] == 0


def test_verdict_reuses_the_continuity_facets(counted, plateau2d):
    report = check_continuity(plateau2d)
    verdict = check_consistent_variation(plateau2d, report)
    assert counted["find_facets"] == 1
    fresh = check_consistent_variation(plateau2d)
    assert (verdict.representable, verdict.certificate) == \
        (fresh.representable, fresh.certificate)


def test_semantic_probe_solves_each_region_center_once(monkeypatch):
    # the two regions share no wall and meet only at the origin, where all
    # four of their constraints are tight: the probe orients each of them
    # by region 0's center, which is solved once
    m = ConventionalPWL(
        2,
        [Region([Halfspace([-1.0, 0.0], 0.0), Halfspace([0.0, -1.0], 0.0)], 0),
         Region([Halfspace([1.0, 1.0], 0.0), Halfspace([1.0, -1.0], 0.0)], 1)],
        [AffineFunction([0.0, 0.0], 0.0), AffineFunction([1.0, 0.0], 0.0)],
        domain=box_region([-1, -1], [1, 1]))
    seen = []
    original = conventional.chebyshev_center

    def spy(region, box=None):
        seen.append(region)
        return original(region, box=box)

    monkeypatch.setattr(conventional, "chebyshev_center", spy)
    assert conventional.find_facets(m) == []
    assert sum(r is m.regions[0] for r in seen) == 1
    assert len(seen) == 2       # the joint region, then region 0


# ---------------------------------------------------------------------------
# Vectorised first-hit evaluation against the per-point loop
# ---------------------------------------------------------------------------

def _line_model(regions, slopes):
    return ConventionalPWL(1, regions,
                           [AffineFunction([s], float(i)) for i, s in enumerate(slopes)])


def test_overlapping_regions_take_the_lowest_label():
    # labels given out of order: label 0 is x <= 2, label 1 is x >= 0
    m = ConventionalPWL(
        1,
        [Region([Halfspace([1.0], 0.0)], 1), Region([Halfspace([-1.0], -2.0)], 0)],
        [AffineFunction([1.0], 0.0), AffineFunction([-1.0], 0.0)])
    pts = np.array([[-1.0], [0.0], [1.0], [2.0], [3.0]])
    assert m.values(pts).tolist() == [1.0, 0.0, -1.0, -2.0, 3.0]
    assert_same_first_hit(m, pts)
    assert [m.region_index(p) for p in pts] == [0, 0, 0, 0, 1]


def test_exact_membership_wins_over_the_tolerance_fallback():
    # x <= 0 (label 0) and x >= 1e-12 (label 1): between them only the
    # tolerance fallback resolves, and there the lowest label wins
    m = _line_model([Region([Halfspace([-1.0], 0.0)], 0),
                     Region([Halfspace([1.0], 1e-12)], 1)], [2.0, 3.0])
    pts = np.array([[-1.0], [5e-13], [1e-12], [1.0]])
    got = m.values(pts)
    assert [m.region_index(p) for p in pts] == [0, 0, 1, 1]
    assert got[1] == m.pieces[0].value([5e-13])
    assert got[2] == m.pieces[1].value([1e-12])
    assert_same_first_hit(m, pts)


def test_open_halfspace_falls_back_within_tolerance():
    # label 0 is x > 0 (open): x = 0 is outside exactly but inside within
    # tolerance, and no other region holds it
    m = _line_model([Region([Halfspace([1.0], 0.0, closed=False)], 0),
                     Region([Halfspace([-1.0], 1.0)], 1)], [1.0, -1.0])
    pts = np.array([[0.0], [-2.0], [0.5]])
    assert [m.region_index(p) for p in pts] == [0, 1, 0]
    assert not m.regions[0].contains([0.0])
    assert m.regions[0].contains([0.0], tol=FEASIBILITY_TOL)
    assert_same_first_hit(m, pts)


def test_coverage_gap_reports_the_first_uncovered_point(tent_corrected):
    pts = np.array([[1.0], [7.0], [2.0], [-3.0]])
    with pytest.raises(CoverageGapError) as err:
        tent_corrected.values(pts)
    assert err.value.point.tolist() == [7.0]
    with pytest.raises(CoverageGapError) as err:
        tent_corrected.values(pts[::-1])
    assert err.value.point.tolist() == [-3.0]
    assert_same_first_hit(tent_corrected, pts)


def test_empty_batch_and_single_points(plateau2d):
    assert plateau2d.values(np.empty((0, 2))).shape == (0,)
    assert plateau2d.value([1.0, 1.0]) == plateau2d.values([[1.0, 1.0]])[0]
    assert plateau2d.region_index([1.0, 1.0]) == 0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_random_overlapping_regions_match_the_loop(count, seed):
    # integer normals and offsets on a dyadic grid: every margin is exact,
    # so points land exactly on walls and in overlaps
    rng = np.random.default_rng(seed)
    regions, pieces = [], []
    for label in rng.permutation(count):
        hs = [Halfspace(rng.integers(-2, 3, 2).astype(float) + [0.5, 0.0],
                        float(rng.integers(-2, 3)), closed=bool(rng.integers(2)))
              for _ in range(rng.integers(1, 4))]
        regions.append(Region(hs, int(label)))
        pieces.append(AffineFunction(rng.integers(-4, 5, 2).astype(float),
                                     float(rng.integers(-4, 5))))
    m = ConventionalPWL(2, regions, pieces, domain=box_region([-2, -2], [2, 2]))
    ax = np.linspace(-2.0, 2.0, 17)
    pts = np.array([[a, b] for a in ax for b in ax])
    assert_same_first_hit(m, pts)
    assert_same_first_hit(m, pts + 2.0**-40)
