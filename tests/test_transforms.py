import numpy as np
import pytest

from pwlkit import (
    AffineFunction,
    ConstructionError,
    ConventionalPWL,
    CplrModel,
    DcSizeError,
    Halfspace,
    HingeModel,
    LatticeModel,
    NotCplrRepresentableError,
    Region,
    box_region,
    check_equivalence,
    cplr_from_consistent,
    dc_abs,
    dc_from_affine,
    dc_from_model,
    dc_max,
    dc_min,
    dc_negate,
    dc_prune,
    dc_scale,
    dc_sum,
    ghh_from_dc,
    lattice_from_conventional,
)
from pwlkit.models import AhhBasis, AhhModel
from pwlkit.transforms import DC_SIZE_CAP

from test_models import dyadic_grid


class TestLatticeConstruction:
    def test_tent_reproduces_expected_selection_sets(self, tent_corrected):
        lat = lattice_from_conventional(tent_corrected)
        assert [list(s) for s in lat.sets] == [
            [0, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 4],
        ]

    def test_tent_lattice_matches_model_exactly_on_dense_grid(self, tent_corrected):
        lat = lattice_from_conventional(tent_corrected)
        g = np.linspace(0, 5, 1001)
        assert np.array_equal(lat.values(g), tent_corrected.values(g))

    def test_single_piece_model(self):
        m = ConventionalPWL(1, [Region([Halfspace([1.0], -10.0)], 0)],
                            [AffineFunction([2.0], 1.0)],
                            domain=box_region([-1.0], [1.0]))
        lat = lattice_from_conventional(m)
        assert lat.sets == ((0,),)

    def test_convex_corner_gets_singleton_rows(self):
        # f = max(x, -x) on [-1, 1]: neither piece dominates on the other side
        m = ConventionalPWL(
            1,
            [Region([Halfspace([-1.0], 0.0)], 0),        # x <= 0
             Region([Halfspace([1.0], 0.0)], 1)],        # x >= 0
            [AffineFunction([-1.0], 0.0), AffineFunction([1.0], 0.0)],
            domain=box_region([-1.0], [1.0]))
        lat = lattice_from_conventional(m)
        assert lat.sets == ((0,), (1,))

    def test_discontinuous_model_rejected(self, tent_verbatim):
        from pwlkit import DiscontinuousModelError
        with pytest.raises(DiscontinuousModelError):
            lattice_from_conventional(tent_verbatim)

    def test_unbounded_model_without_box_rejected(self, tent_corrected):
        unbounded = ConventionalPWL(1, tent_corrected.regions,
                                    tent_corrected.pieces, domain=None)
        with pytest.raises(ValueError):
            lattice_from_conventional(unbounded)

    def test_row_min_attains_own_piece_on_own_region(self, tent_corrected):
        lat = lattice_from_conventional(tent_corrected)
        g = np.linspace(0, 5, 501)
        piece_vals = np.column_stack([a.values(g) for a in lat.affines])
        for i, region in enumerate(tent_corrected.regions):
            inside = region.contains_many(g[:, None])
            row = np.min(piece_vals[np.ix_(inside, list(lat.sets[i]))], axis=1)
            assert np.array_equal(row, piece_vals[inside, i])


def random_expression_tree(rng, dim, depth):
    """Build (evaluator, dc_form) pairs over integer-coefficient leaves.

    The direct evaluator composes the same max/min/scale/sum/abs on the
    same reals as the lowering, so on dyadic points both are exact.
    """
    if depth == 0 or rng.random() < 0.25:
        aff = AffineFunction(rng.integers(-8, 9, dim).astype(float),
                             float(rng.integers(-8, 9)))
        return (lambda pts, a=aff: a.values(pts)), dc_from_affine(aff)
    op = rng.choice(["sum", "max", "min", "neg", "scale", "abs"])
    f_eval, f_dc = random_expression_tree(rng, dim, depth - 1)
    if op == "neg":
        return (lambda pts: -f_eval(pts)), dc_negate(f_dc)
    if op == "abs":
        return (lambda pts: np.abs(f_eval(pts))), dc_abs(f_dc)
    if op == "scale":
        c = float(rng.integers(-4, 5))
        return (lambda pts: c * f_eval(pts)), dc_scale(f_dc, c)
    g_eval, g_dc = random_expression_tree(rng, dim, depth - 1)
    if op == "sum":
        return (lambda pts: f_eval(pts) + g_eval(pts)), dc_sum(f_dc, g_dc)
    if op == "max":
        return (lambda pts: np.maximum(f_eval(pts), g_eval(pts))), dc_max(f_dc, g_dc)
    return (lambda pts: np.minimum(f_eval(pts), g_eval(pts))), dc_min(f_dc, g_dc)


class TestDcAlgebra:
    def test_min_with_zero_identity(self):
        f = dc_min(dc_from_affine(AffineFunction([1.0], 0.0)),
                   dc_from_affine(AffineFunction([0.0], 0.0)))
        assert f.value(-1.0) == -1.0
        assert f.value(2.0) == 0.0

    def test_zigzag_lowering_is_exact_on_dyadic_grid(self, zigzag_cplr):
        dc = dc_from_model(zigzag_cplr)
        g = dyadic_grid(-3, 3, 601)
        assert np.array_equal(dc.values(g), zigzag_cplr.values(g))

    def test_tent_lattice_lowering_is_exact_on_dyadic_grid(self, tent_lattice):
        dc = dc_from_model(tent_lattice)
        g = dyadic_grid(0, 5, 1001)
        assert np.array_equal(dc.values(g), tent_lattice.values(g))

    def test_random_trees_match_direct_evaluation_exactly(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            dim = int(rng.integers(1, 4))
            direct, dc = random_expression_tree(rng, dim, int(rng.integers(1, 5)))
            pts = rng.integers(-2 ** 10, 2 ** 10, (200, dim)) / 2.0 ** 9
            assert np.array_equal(dc.values(pts), direct(pts))

    def test_size_cap_fails_loudly(self):
        f = dc_from_affine(AffineFunction([1.0], 0.0))
        with pytest.raises(DcSizeError):
            for _ in range(16):
                f = dc_abs(dc_sum(f, f))
        assert DC_SIZE_CAP == 4096

    def test_prune_keeps_values_on_probe_grid(self, tent_lattice):
        dc = dc_from_model(tent_lattice)
        pruned = dc_prune(dc, (np.array([0.0]), np.array([5.0])))
        assert pruned.plus.shape[0] <= dc.plus.shape[0]
        g = np.linspace(0, 5, 501)
        assert np.allclose(pruned.values(g), dc.values(g), atol=1e-12)


class TestGhhFromDc:
    def test_relu_lowering(self):
        relu = dc_max(dc_from_affine(AffineFunction([1.0], 0.0)),
                      dc_from_affine(AffineFunction([0.0], 0.0)))
        ghh = ghh_from_dc(relu)
        assert ghh.value(2.0) == 2.0
        assert ghh.value(-1.0) == 0.0

    def test_tent_lattice_to_ghh_exact(self, tent_lattice):
        ghh = ghh_from_dc(dc_from_model(tent_lattice))
        g = dyadic_grid(0, 5, 1001)
        assert np.array_equal(ghh.values(g), tent_lattice.values(g))

    def test_min_of_axis_hinges_to_ghh(self):
        # knots 0.3 / 0.6 are not binary fractions, so the two evaluation
        # routes round differently; non-integer data gets the 1e-12 rule
        basis = AhhModel(2, 0.0, [(1.0, AhhBasis([(1, 1, 0.3), (-1, 0, 0.6)]))])
        ghh = ghh_from_dc(dc_from_model(basis))
        ax = np.linspace(0, 1, 51)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        assert np.allclose(ghh.values(pts), basis.values(pts), atol=1e-12)

    def test_min_of_axis_hinges_to_ghh_exact_with_dyadic_knots(self):
        basis = AhhModel(2, 0.0,
                         [(1.0, AhhBasis([(1, 1, 0.3125), (-1, 0, 0.625)]))])
        ghh = ghh_from_dc(dc_from_model(basis))
        ax = dyadic_grid(0, 1, 51)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        assert np.array_equal(ghh.values(pts), basis.values(pts))


class TestCplrReconstruction:
    def test_fold_recovers_absolute_value_form(self, fold3d):
        cplr = cplr_from_consistent(fold3d)
        assert np.allclose(cplr.alpha0, 0.0, atol=1e-9)
        assert cplr.beta0 == pytest.approx(0.0, abs=1e-9)
        assert len(cplr.terms) == 1
        eta, alpha, beta = cplr.terms[0]
        assert eta == 1
        assert np.allclose(alpha, [1.0, -1.0, 1.0], atol=1e-9)
        assert beta == pytest.approx(1.0, abs=1e-9)
        fold_dense = np.random.default_rng(0).uniform(-2, 2, (500, 3))
        assert np.allclose(cplr.values(fold_dense), fold3d.values(fold_dense),
                           atol=1e-9)

    def test_plateau_rejected_with_certificate(self, plateau2d):
        with pytest.raises(NotCplrRepresentableError) as err:
            cplr_from_consistent(plateau2d)
        assert err.value.certificate is not None

    def test_affine_only_model_yields_no_terms(self):
        m = ConventionalPWL(2, [Region([Halfspace([1.0, 0.0], -50.0)], 0)],
                            [AffineFunction([3.0, -1.0], 0.25)],
                            domain=box_region([-1, -1], [1, 1]))
        cplr = cplr_from_consistent(m)
        assert cplr.terms == ()
        assert np.allclose(cplr.alpha0, [3.0, -1.0])

    def test_reconstruction_is_idempotent_on_grid(self, tent_corrected):
        cplr = cplr_from_consistent(tent_corrected)
        g = np.linspace(0, 5, 1001)
        assert np.allclose(cplr.values(g), tent_corrected.values(g), atol=1e-9)


class TestEquivalence:
    def test_nested_vs_ghh_plateau_forms(self, plateau2d_nested, plateau2d_ghh):
        box = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
        report = check_equivalence(plateau2d_nested, plateau2d_ghh, box,
                                   grid_density=101)
        assert report.max_abs_deviation <= 1e-12

    def test_reflexive_equivalence_is_exact(self, zigzag_cplr):
        box = (np.array([-3.0]), np.array([3.0]))
        report = check_equivalence(zigzag_cplr, zigzag_cplr, box)
        assert report.max_abs_deviation == 0.0
        assert report.equivalent

    def test_cplr_vs_hinge_rewrite(self, zigzag_cplr):
        hh = HingeModel.from_cplr(zigzag_cplr)
        box = (np.array([-3.0]), np.array([3.0]))
        report = check_equivalence(zigzag_cplr, hh, box, grid_density=601)
        assert report.max_abs_deviation <= 1e-12
        assert report.equivalent

    def test_deviation_localized(self):
        a = CplrModel([1.0], 0.0, [])
        b = CplrModel([1.0], 0.0, [(1, [1.0], -2.9)])
        box = (np.array([-3.0]), np.array([3.0]))
        report = check_equivalence(a, b, box, grid_density=601)
        assert not report.equivalent
        assert report.max_abs_deviation == pytest.approx(5.9, abs=1e-9)
        assert report.argmax_point[0] == pytest.approx(-3.0, abs=1e-9)


class TestVerificationRefusesNan:
    """A constructed form that evaluates to NaN at one in-domain grid point
    fails verification: its NaN deviation is not within 1e-9."""

    @staticmethod
    def _nan_at_one_point(monkeypatch, cls):
        values = cls.values

        def patched(self, X):
            out = np.array(values(self, X), dtype=float)
            out[out.shape[0] // 2] = np.nan
            return out

        monkeypatch.setattr(cls, "values", patched)

    def test_lattice(self, tent_corrected, monkeypatch):
        self._nan_at_one_point(monkeypatch, LatticeModel)
        with pytest.raises(ConstructionError, match="max deviation nan"):
            lattice_from_conventional(tent_corrected)

    def test_canonical(self, fold3d, monkeypatch):
        self._nan_at_one_point(monkeypatch, CplrModel)
        with pytest.raises(ConstructionError, match="max deviation nan"):
            cplr_from_consistent(fold3d)
