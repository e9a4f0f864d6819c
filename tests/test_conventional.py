import numpy as np
import pytest
from scipy.linalg import null_space

from pwlkit import (
    AffineFunction,
    ConventionalPWL,
    CoverageGapError,
    DiscontinuousModelError,
    Halfspace,
    Region,
    box_region,
    check_consistent_variation,
    check_continuity,
)
from pwlkit.conventional import chebyshev_center, find_facets


class TestEval:
    def test_fold_value_at_origin(self, fold3d):
        assert fold3d.value([0.0, 0.0, 0.0]) == 1.0

    def test_fold_boundary_point_agrees_on_both_pieces(self, fold3d):
        # pi(x) = 0 at (-1, 0, 0); continuity forces the shared value 0
        x = np.array([-1.0, 0.0, 0.0])
        assert fold3d.value(x) == 0.0
        assert fold3d.pieces[0].value(x) == fold3d.pieces[1].value(x) == 0.0

    def test_tent_plateau_value(self, tent_corrected):
        assert tent_corrected.value([2.5]) == 2.0

    def test_interior_points_match_their_piece_exactly(self, tent_corrected):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.uniform(0.0, 5.0, 1)
            i = tent_corrected.region_index(x)
            assert tent_corrected.value(x) == tent_corrected.pieces[i].value(x)

    def test_boundary_tie_resolves_to_lowest_label(self, tent_corrected):
        assert tent_corrected.region_index([1.0]) == 0

    def test_coverage_gap_carries_point(self, tent_corrected):
        with pytest.raises(CoverageGapError) as err:
            tent_corrected.value([7.0])
        assert err.value.point[0] == 7.0

    def test_batch_agrees_with_pointwise(self, tent_corrected):
        g = np.linspace(0, 5, 101)
        batch = tent_corrected.values(g)
        assert all(batch[i] == tent_corrected.value([g[i]]) for i in range(101))


class TestContinuity:
    def test_fold_is_continuous(self, fold3d):
        assert check_continuity(fold3d).ok

    def test_corrected_tent_is_continuous(self, tent_corrected):
        report = check_continuity(tent_corrected)
        assert report.ok
        assert len(report.facets) == 4

    def test_inconsistent_breaks_are_flagged_with_witnesses(self, tent_verbatim):
        report = check_continuity(tent_verbatim)
        assert len(report.violations) == 2
        witnessed = sorted((v.point[0], v.value_i, v.value_j)
                           for v in report.violations)
        assert witnessed[0][0] == pytest.approx(1.8, abs=1e-12)
        assert sorted(witnessed[0][1:]) == pytest.approx([2.0, 2.6])
        assert witnessed[1][0] == pytest.approx(3.2, abs=1e-12)
        assert sorted(witnessed[1][1:]) == pytest.approx([2.0, 2.6])

    def test_boundary_perturbation_stays_lipschitz(self, fold3d):
        # |f(x + eps v) - f(x - eps v)| <= 2 eps L near any boundary point
        eps = 1e-6
        L = fold3d.max_jacobian_norm()
        rng = np.random.default_rng(3)
        facets = find_facets(fold3d)
        assert facets
        count = 0
        for facet in facets:
            tangent = null_space(facet.alpha[None, :])
            while count < 10_000:
                t = rng.uniform(-0.5, 0.5, tangent.shape[1])
                x = facet.center + tangent @ t
                v = rng.normal(size=3)
                v /= np.linalg.norm(v)
                lhs = abs(fold3d.value(x + eps * v) - fold3d.value(x - eps * v))
                assert lhs <= 2 * eps * L + 1e-12
                count += 1


class TestConsistentVariation:
    def test_fold_is_representable_with_parallel_jump(self, fold3d):
        verdict = check_consistent_variation(fold3d)
        assert verdict.representable
        ((alpha, beta, c),) = verdict.hyperplanes.values()
        # jump J1 - J2 = (2,-2,2) = 2*sqrt(3) * unit normal
        assert c == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-12)

    def test_plateau_is_rejected_with_diagonal_certificate(self, plateau2d):
        verdict = check_consistent_variation(plateau2d)
        assert not verdict.representable
        alpha = np.array(verdict.certificate[:2])
        # certificate hyperplane is x1 = x2 up to sign
        assert np.allclose(np.abs(alpha), [1, 1] / np.sqrt(2), atol=1e-9)

    def test_single_piece_model_is_trivially_representable(self):
        m = ConventionalPWL(
            2,
            [Region([Halfspace([1.0, 0.0], -100.0)], 0)],
            [AffineFunction([3.0, -1.0], 0.5)],
            domain=box_region([-1, -1], [1, 1]),
        )
        assert check_consistent_variation(m).representable

    def test_discontinuous_input_is_rejected(self, tent_verbatim):
        with pytest.raises(DiscontinuousModelError):
            check_consistent_variation(tent_verbatim)


class TestGeometry:
    def test_chebyshev_center_is_interior(self, plateau2d):
        for region in plateau2d.regions:
            center, radius = chebyshev_center(region, box=plateau2d.domain_box())
            assert radius > 1e-9
            assert region.contains(center)

    def test_facets_pair_all_neighbors(self, plateau2d):
        pairs = {(f.i, f.j) for f in find_facets(plateau2d)}
        assert pairs == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_validated_construction_certifies_nonempty(self):
        r = Region.validated([Halfspace([1.0], 0.0), Halfspace([-1.0], -2.0)],
                             label=3)
        assert r.label == 3
        with pytest.raises(ValueError):
            Region.validated([Halfspace([1.0], 1.0), Halfspace([-1.0], 1.0)])

    def test_scaled_halfspaces_are_detected_syntactically(self):
        # same wall written at different scales still pairs the regions
        left = Region([Halfspace([-2.0], -2.0)], 0)       # x <= 1
        right = Region([Halfspace([5.0], 5.0)], 1)        # x >= 1
        m = ConventionalPWL(1, [left, right],
                            [AffineFunction([1.0], 0.0),
                             AffineFunction([2.0], -1.0)],
                            domain=box_region([-1.0], [3.0]))
        facets = find_facets(m)
        assert len(facets) == 1
        assert facets[0].center[0] == pytest.approx(1.0, abs=1e-9)
        assert check_continuity(m).ok
