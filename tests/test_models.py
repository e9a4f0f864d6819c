import numpy as np
import pytest

from pwlkit import (
    AffineFunction,
    AhhBasis,
    AhhModel,
    CplrModel,
    DimensionMismatchError,
    GhhModel,
    HingeModel,
    HlCplrBasis,
    LatticeModel,
    NestedCplrModel,
    SbfModel,
)
from pwlkit.affine import stack_affines


def dyadic_grid(lo, hi, count, scale=2 ** 20):
    """Uniform grid snapped to exact binary fractions.

    On such points integer-coefficient models evaluate without rounding,
    so cross-representation agreement can be asserted exactly.
    """
    return np.round(np.linspace(lo, hi, count) * scale) / scale


class TestCplr:
    def test_zigzag_three_pieces(self, zigzag_cplr):
        assert zigzag_cplr.value(0.0) == 0.0
        assert zigzag_cplr.value(-2.0) == 0.0
        assert zigzag_cplr.value(3.0) == 1.0

    def test_eta_restricted_to_unit_signs(self):
        with pytest.raises(ValueError):
            CplrModel([1.0], 0.0, [(2, [1.0], 0.0)])

    def test_dimension_mismatch(self, zigzag_cplr):
        with pytest.raises(DimensionMismatchError):
            zigzag_cplr.values(np.zeros((4, 2)))


class TestNested:
    def test_plateau_values(self, plateau2d_nested):
        assert plateau2d_nested.value([0.0, 0.0]) == 0.0
        assert plateau2d_nested.value([1.0, 1.0]) == 20.0
        assert plateau2d_nested.value([0.5, 0.5]) == 5.0

    def test_declared_level(self, plateau2d_nested, zigzag_cplr):
        assert plateau2d_nested.level == 2
        assert NestedCplrModel.from_cplr(zigzag_cplr).level == 1

    def test_wrapping_flat_model_changes_nothing(self, zigzag_cplr):
        wrapped = NestedCplrModel.from_cplr(zigzag_cplr)
        g = dyadic_grid(-3, 3, 601)
        assert np.array_equal(wrapped.values(g), zigzag_cplr.values(g))


class TestHinge:
    def test_single_hinge_sides(self):
        m = HingeModel([0.0], 0.0, [(1.0, [1.0], 0.0)])
        assert m.value(-1.0) == 0.0
        assert m.value(2.0) == 2.0

    def test_rewrite_of_absolute_values_matches_exactly(self, zigzag_cplr):
        hh = HingeModel.from_cplr(zigzag_cplr)
        g = dyadic_grid(-3, 3, 61)
        assert np.array_equal(hh.values(g), zigzag_cplr.values(g))


class TestGhh:
    def test_plateau_values(self, plateau2d_ghh):
        assert plateau2d_ghh.value([0.0, 0.0]) == 0.0
        assert plateau2d_ghh.value([1.0, 1.0]) == 20.0
        assert plateau2d_ghh.value([1.0, 0.0]) == 0.0

    def test_empty_affine_list_rejected(self):
        with pytest.raises(ValueError):
            GhhModel([(1.0, [])])

    def test_values_match_per_call_stacking(self):
        """Stacking each term once at construction keeps every value bit."""
        rng = np.random.default_rng(4)
        model = GhhModel([(float(rng.normal()),
                           [AffineFunction(rng.normal(size=3), float(rng.normal()))
                            for _ in range(k)]) for k in (1, 3, 4)])
        X = rng.uniform(-2.0, 2.0, (500, 3))
        want = np.zeros(X.shape[0])
        for w, affines in model.terms:
            J, b = stack_affines(affines)
            want = want + w * np.max(X @ J.T + b, axis=1)
        assert model.values(X).tobytes() == want.tobytes()


class TestHlCplr:
    def test_single_axis_reduces_to_relu(self):
        b = HlCplrBasis(1, 1.0, [(0, 0)])
        assert b.value(0.7) == 0.7
        assert b.value(-0.3) == 0.0

    def test_two_axis_min(self):
        b = HlCplrBasis(2, 1.0, [(0, 0), (1, 0)])
        assert b.value([0.3, 0.6]) == 0.3
        assert b.value([-0.1, 0.6]) == 0.0

    def test_single_axis_equals_shifted_hinge_everywhere(self):
        b = HlCplrBasis(2, 0.5, [(1, 3)])
        hinge = b.as_hinge()
        pts = np.random.default_rng(0).uniform(-2, 4, (200, 2))
        assert np.array_equal(b.values(pts), hinge.values(pts))

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError):
            HlCplrBasis(2, 1.0, [(0, 0), (0, 1)])


class TestAhh:
    def test_two_factor_basis(self):
        m = AhhModel(2, 0.0, [(1.0, AhhBasis([(1, 1, 0.3), (-1, 0, 0.6)]))])
        assert m.value([0.2, 0.5]) == pytest.approx(0.2)
        assert m.value([0.8, 0.2]) == 0.0

    def test_constant_basis_is_the_intercept(self):
        m = AhhModel(3, 1.0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            assert m.value(rng.uniform(-4, 4, 3)) == 1.0

    def test_repeated_variable_is_harmless(self):
        once = AhhModel(1, 0.0, [(1.0, AhhBasis([(1, 0, 0.5)]))])
        twice = AhhModel(1, 0.0, [(1.0, AhhBasis([(1, 0, 0.5), (1, 0, 0.5)]))])
        g = np.linspace(-1, 2, 100)
        assert np.array_equal(once.values(g), twice.values(g))

    def test_variable_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            AhhModel(2, 0.0, [(1.0, AhhBasis([(1, 2, 0.0)]))])


class TestSbf:
    def test_peak_and_slope_and_support(self):
        m = SbfModel(2, [(1.0, [1.0, 1.0], [0.0, 0.0])])
        assert m.value([0.0, 0.0]) == 1.0
        assert m.value([0.5, 0.25]) == 0.25
        assert m.value([2.0, 0.0]) == 0.0

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            SbfModel(1, [(1.0, [-1.0], [0.0])])


class TestLattice:
    def test_tent_values(self, tent_lattice):
        assert tent_lattice.value(2.5) == 2.0
        assert tent_lattice.value(0.0) == 0.5
        assert tent_lattice.value(5.0) == 0.5

    def test_duplicated_index_inside_a_set_is_invariant(self, tent_lattice):
        dup = LatticeModel(tent_lattice.affines,
                           [(0, 0, 2, 3, 4, 4)] + [list(s) for s in
                                                   tent_lattice.sets[1:]])
        g = np.linspace(0, 5, 501)
        assert np.array_equal(dup.values(g), tent_lattice.values(g))

    def test_row_permutation_is_invariant(self, tent_lattice):
        perm = LatticeModel(tent_lattice.affines, tent_lattice.sets[::-1])
        g = np.linspace(0, 5, 501)
        assert np.array_equal(perm.values(g), tent_lattice.values(g))

    def test_empty_set_rejected(self, tent_lattice):
        with pytest.raises(ValueError):
            LatticeModel(tent_lattice.affines, [[]])

    def test_out_of_range_index_rejected(self, tent_lattice):
        with pytest.raises(ValueError):
            LatticeModel(tent_lattice.affines, [[0, 9]])


def lipschitz_bound(model):
    """Parameter-derived Lipschitz constant, model-family specific."""
    if isinstance(model, CplrModel):
        return (np.linalg.norm(model.alpha0)
                + sum(np.linalg.norm(a) for _, a, _ in model.terms))
    if isinstance(model, HingeModel):
        return (np.linalg.norm(model.alpha0)
                + sum(abs(w) * np.linalg.norm(a) for w, a, _ in model.hinges))
    if isinstance(model, GhhModel):
        return sum(abs(w) * max(np.linalg.norm(a.jacobian) for a in affs)
                   for w, affs in model.terms)
    if isinstance(model, LatticeModel):
        return max(np.linalg.norm(a.jacobian) for a in model.affines)
    if isinstance(model, AhhModel):
        return sum(abs(w) for w, _ in model.bases)
    if isinstance(model, SbfModel):
        return sum(abs(w) * np.linalg.norm(g) for w, g, _ in model.bases)
    if isinstance(model, NestedCplrModel):
        def node_bound(node):
            return (np.linalg.norm(node.affine.jacobian)
                    + sum(abs(c) * node_bound(child)
                          for c, child in node.children))
        return node_bound(model.root)
    raise TypeError(type(model).__name__)


def test_every_compact_model_is_lipschitz_continuous(
        zigzag_cplr, plateau2d_nested, plateau2d_ghh, tent_lattice):
    models = [
        zigzag_cplr,
        plateau2d_nested,
        plateau2d_ghh,
        tent_lattice,
        HingeModel.from_cplr(zigzag_cplr),
        AhhModel(2, 0.5, [(2.0, AhhBasis([(1, 1, 0.3), (-1, 0, 0.6)]))]),
        SbfModel(2, [(3.0, [2.0, 2.0], [0.5, 0.5])]),
    ]
    eps = 1e-6
    rng = np.random.default_rng(11)
    for model in models:
        L = lipschitz_bound(model)
        for _ in range(500):
            x = rng.uniform(-2, 2, model.dim)
            v = rng.normal(size=model.dim)
            v /= np.linalg.norm(v)
            gap = abs(model.value(x + eps * v) - model.value(x - eps * v))
            assert gap <= 2 * eps * L + 1e-12
