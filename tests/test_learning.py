import numpy as np
import pytest

from pwlkit import (
    Dataset,
    FitConfig,
    SingularSystemError,
    find_hinge,
    fit_ahh,
    fit_hh,
    fit_sbf,
    least_squares,
)
from pwlkit.learning import _find_hinge, _scan_candidate_blocks
from pwlkit.models import SbfModel


def grid2d(lo, hi, count):
    ax = np.linspace(lo, hi, count)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def rmse(model, X, y):
    return float(np.sqrt(np.mean((model.values(X) - y) ** 2)))


class TestLeastSquares:
    def test_exact_line(self):
        theta = least_squares(np.array([[1.0], [2.0]]), np.array([2.0, 4.0]))
        assert theta == pytest.approx([2.0])

    def test_identity_system(self):
        theta = least_squares(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(theta, [1, 2, 3])

    def test_planted_solution_recovery(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 3))
        planted = np.array([1.5, -2.0, 0.7])
        theta = least_squares(X, X @ planted)
        assert np.max(np.abs(theta - planted)) <= 1e-10

    def test_rank_deficiency_without_damping_raises(self):
        X = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(SingularSystemError):
            least_squares(X, np.arange(10.0))

    def test_damping_rescues_rank_deficiency(self):
        X = np.column_stack([np.ones(10), np.ones(10)])
        theta = least_squares(X, np.ones(10), ridge=1e-8)
        assert np.allclose(X @ theta, 1.0, atol=1e-6)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(80, 5))
        y = rng.normal(size=80)
        for lam in (0.0, 1e-8, 1e-2):
            theta = least_squares(X, y, ridge=lam)
            stat = np.linalg.norm(X.T @ (X @ theta - y) + lam * theta)
            assert stat <= 1e-8 * np.linalg.norm(X.T @ y)


class TestFindHinge:
    def test_noiseless_relu_recovered(self):
        x = np.linspace(-1, 1, 201)[:, None]
        y = np.maximum(x[:, 0], 0.0)
        hf = find_hinge(Dataset(x, y), FitConfig(seed=0))
        assert rmse(hf, x, y) <= 1e-8

    def test_exactly_affine_data_degenerates_gracefully(self):
        x = np.linspace(-1, 1, 201)[:, None]
        y = 2.0 * x[:, 0] + 1.0
        hf = find_hinge(Dataset(x, y), FitConfig(seed=0))
        assert rmse(hf, x, y) <= 1e-8

    def test_noisy_planted_2d_hinge(self):
        rng = np.random.default_rng(3)
        X = grid2d(0, 1, 41)
        truth = np.maximum(X[:, 0] + X[:, 1] - 1.0, 0.0)
        y = truth + 0.01 * rng.standard_normal(X.shape[0])
        hf = find_hinge(Dataset(X, y), FitConfig(seed=0, max_iterations=50))
        assert float(np.sqrt(np.mean((hf.values(X) - truth) ** 2))) <= 0.02

    def test_membership_fixed_point(self):
        x = np.linspace(-1, 1, 201)[:, None]
        y = np.maximum(x[:, 0], 0.0) - 0.25 * x[:, 0]
        hf = find_hinge(Dataset(x, y), FitConfig(seed=0))
        assert hf.converged
        # one more alternation from the converged split changes nothing
        again = _find_hinge(x, y, FitConfig(seed=0),
                            np.random.default_rng(0),
                            init=(hf.theta_plus, hf.theta_minus))
        assert np.max(np.abs(again.theta_plus - hf.theta_plus)) <= 1e-12
        assert np.max(np.abs(again.theta_minus - hf.theta_minus)) <= 1e-12

    def test_too_few_samples_rejected(self):
        x = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError):
            find_hinge(Dataset(x, x[:, 0]), FitConfig())


class TestFitHh:
    def test_zigzag_two_hinges_exact(self, zigzag_cplr):
        X = np.linspace(-3, 3, 601)[:, None]
        y = zigzag_cplr.values(X)
        model, trace = fit_hh(Dataset(X, y), FitConfig(max_terms=2, seed=0))
        assert len(model.hinges) == 2
        assert rmse(model, X, y) <= 1e-6

    def test_affine_target_stops_without_hinges(self):
        X = np.linspace(-3, 3, 601)[:, None]
        y = 2.0 * X[:, 0] + 1.0
        model, trace = fit_hh(Dataset(X, y), FitConfig(max_terms=5, seed=0))
        assert len(model.hinges) == 0
        assert trace.records[-1].action in ("stop-no-progress", "skip-degenerate")
        assert rmse(model, X, y) <= 1e-8

    def test_training_sse_monotone_over_growth(self, plateau2d_ghh):
        X = grid2d(0, 1, 21)
        y = plateau2d_ghh.values(X)
        model, trace = fit_hh(Dataset(X, y), FitConfig(max_terms=5, seed=0))
        grown = [r.train_sse for r in trace.records if r.action == "add-hinge"]
        assert all(b <= a + 1e-12 for a, b in zip(grown, grown[1:]))

    def test_deterministic_trace(self, plateau2d_ghh):
        X = grid2d(0, 1, 15)
        y = plateau2d_ghh.values(X)
        cfg = FitConfig(max_terms=3, seed=42, validation_split=0.25)
        _, t1 = fit_hh(Dataset(X, y), cfg)
        _, t2 = fit_hh(Dataset(X, y), cfg)
        assert t1.to_csv() == t2.to_csv()


class TestFitAhh:
    def test_additive_target_knots_on_quantile_grid(self):
        X = grid2d(0, 1, 41)
        y = np.maximum(X[:, 1] - 0.3, 0) + np.maximum(0.6 - X[:, 0], 0)
        model, trace, tree = fit_ahh(
            Dataset(X, y), FitConfig(max_terms=6, seed=0, validation_split=0.2))
        assert rmse(model, X, y) <= 1e-3
        knots = sorted({(v, round(k, 6)) for w, b in model.bases
                        for _, v, k in b.factors if abs(w) > 1e-6})
        quantile_step = 0.05 * 1.0
        assert any(v == 1 and abs(k - 0.3) <= quantile_step for v, k in knots)
        assert any(v == 0 and abs(k - 0.6) <= quantile_step for v, k in knots)

    def test_constant_target_is_the_intercept(self):
        X = grid2d(0, 1, 11)
        model, trace, _ = fit_ahh(Dataset(X, np.full(X.shape[0], 5.0)),
                                  FitConfig(max_terms=6, seed=0))
        assert model.bases == ()
        assert model.intercept == pytest.approx(5.0, abs=1e-6)

    def test_interaction_target_grows_a_two_factor_basis(self):
        X = grid2d(0, 1, 41)
        y = np.minimum(np.maximum(X[:, 1] - 0.3, 0), np.maximum(0.6 - X[:, 0], 0))
        model, trace, tree = fit_ahh(
            Dataset(X, y), FitConfig(max_terms=8, seed=0, validation_split=0.2))
        assert any(len(b.factors) >= 2 for _, b in model.bases)
        assert rmse(model, X, y) <= 0.05

    def test_planted_additive_plus_interaction_recovered(self):
        X = grid2d(0, 1, 41)
        h2 = np.maximum(X[:, 1] - 0.3, 0)
        h1 = np.maximum(0.6 - X[:, 0], 0)
        y = h2 + h1 + np.minimum(h2, h1)
        model, trace, _ = fit_ahh(
            Dataset(X, y), FitConfig(max_terms=8, seed=0, validation_split=0.2))
        assert rmse(model, X, y) <= 1e-3
        knots = {(v, round(k, 6)) for w, b in model.bases
                 for _, v, k in b.factors if abs(w) > 1e-6}
        step = 0.05
        assert any(v == 1 and abs(k - 0.3) <= step for v, k in knots)
        assert any(v == 0 and abs(k - 0.6) <= step for v, k in knots)

    def test_pruning_never_raises_validation_sse(self):
        rng = np.random.default_rng(9)
        X = grid2d(0, 1, 21)
        y = (np.maximum(X[:, 1] - 0.3, 0) + np.maximum(0.6 - X[:, 0], 0)
             + 0.05 * rng.standard_normal(X.shape[0]))
        _, trace, _ = fit_ahh(Dataset(X, y),
                              FitConfig(max_terms=10, seed=1,
                                        validation_split=0.3))
        val = [r.validation_sse for r in trace.records]
        prunes = [i for i, r in enumerate(trace.records) if r.action == "prune"]
        for i in prunes:
            assert val[i] <= val[i - 1] + 1e-12

    def test_tree_records_parent_links(self):
        X = grid2d(0, 1, 41)
        y = np.minimum(np.maximum(X[:, 1] - 0.3, 0), np.maximum(0.6 - X[:, 0], 0))
        _, _, tree = fit_ahh(Dataset(X, y),
                             FitConfig(max_terms=8, seed=0,
                                       validation_split=0.2))
        roots = [n for n in tree if n.parent_factors is None]
        children = [n for n in tree if n.parent_factors is not None]
        assert roots
        assert children
        for node in children:
            assert any(n.factors == node.parent_factors for n in tree)


class TestFitSbf:
    def test_planted_tent_recovered(self):
        X = grid2d(0, 1, 41)
        y = 3.0 * np.maximum(1.0 - 2 * np.abs(X[:, 0] - 0.5)
                             - 2 * np.abs(X[:, 1] - 0.5), 0.0)
        model, trace = fit_sbf(Dataset(X, y), FitConfig(max_terms=4, seed=0))
        assert rmse(model, X, y) <= 0.05
        w, gamma, zeta = model.bases[0]
        cell = 1.0 / 40
        assert np.max(np.abs(zeta - 0.5)) <= cell
        assert w == pytest.approx(3.0, abs=0.05)

    def test_zero_target_stays_empty(self):
        X = grid2d(0, 1, 11)
        model, trace = fit_sbf(Dataset(X, np.zeros(X.shape[0])),
                               FitConfig(max_terms=4, seed=0))
        assert model.bases == ()
        assert trace.records[-1].action == "stop-perfect"

    def test_zigzag_six_tents(self, zigzag_cplr):
        X = np.linspace(-3, 3, 601)[:, None]
        y = zigzag_cplr.values(X)
        model, trace = fit_sbf(Dataset(X, y), FitConfig(max_terms=6, seed=0))
        assert rmse(model, X, y) <= 0.05

    def test_training_sse_monotone(self, zigzag_cplr):
        X = np.linspace(-3, 3, 201)[:, None]
        y = zigzag_cplr.values(X)
        _, trace = fit_sbf(Dataset(X, y), FitConfig(max_terms=5, seed=0))
        added = [r.train_sse for r in trace.records if r.action == "add-tent"]
        assert all(b <= a + 1e-12 for a, b in zip(added, added[1:]))


class TestDataset:
    def test_csv_header_autodetect(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,target\n1,2,3\n4,5,6\n")
        d = Dataset.from_csv(p)
        assert d.feature_names == ("a", "b")
        assert d.inputs.shape == (2, 2)
        assert list(d.targets) == [3.0, 6.0]

    def test_csv_headerless(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,3\n4,5,6\n")
        d = Dataset.from_csv(p)
        assert d.feature_names is None
        assert d.size == 2

    def test_csv_forced_header_off(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,3\n4,5,6\n")
        d = Dataset.from_csv(p, header=False)
        assert d.size == 2

    def test_csv_forced_header_on(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,3\n4,5,6\n")
        d = Dataset.from_csv(p, header=True)
        assert d.size == 1
        assert d.feature_names == ("1", "2")

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Dataset([[1.0], [np.nan]], [0.0, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset([[1.0], [2.0]], [0.0])


class TestFitConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_terms": 0},
        {"max_iterations": 0},
        {"tolerance": 0.0},
        {"ridge": -1e-9},
        {"validation_split": 1.0},
    ])
    def test_bad_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)


class TestExactRefit:
    def test_refitting_a_representable_hinge_sum_is_exact(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(-1, 1, (400, 2))
        y = (0.3 * X[:, 0] - 0.1
             + 1.5 * np.maximum(X[:, 0] - 0.5 * X[:, 1] + 0.1, 0.0))
        model, _ = fit_hh(Dataset(X, y), FitConfig(max_terms=1, seed=0))
        assert rmse(model, X, y) <= 1e-6

    def test_refitting_a_representable_tent_sum_is_exact(self):
        # the planted center sits on a data point, as residual-peak
        # placement can only select observed inputs
        X = grid2d(0, 1, 41)
        target = SbfModel(2, [(2.0, [2.0, 1.0], [0.25, 0.75])])
        y = target.values(X)
        model, _ = fit_sbf(Dataset(X, y), FitConfig(max_terms=2, seed=0))
        assert rmse(model, X, y) <= 1e-6


@pytest.mark.xfail(strict=True, reason="the scan scores y.y - 2 r.theta + theta.K.theta, "
                   "which cancels at scale 1e3: about -1.9e-9 at the true knot, "
                   "where a direct refit gives 5e-23")
def test_candidate_scan_matches_direct_refit():
    """The knot scan's SSE is nonnegative and agrees with a direct refit."""
    x = np.linspace(0.0, 1e3, 400)
    y = np.maximum(x - 500.0, 0.0)
    B = np.column_stack([x, np.ones_like(x)])
    knots = np.linspace(50.0, 950.0, 181)
    blocks = np.maximum(x[:, None] - knots[None, :], 0.0)[:, :, None]
    scan = _scan_candidate_blocks(B, y, blocks, 1e-8)
    for i, knot in enumerate(knots):
        C = np.column_stack([B, blocks[:, i, :]])
        direct = float(np.sum((C @ least_squares(C, y, 1e-8) - y) ** 2))
        assert scan[i] >= 0.0
        assert abs(scan[i] - direct) <= 1e-9 * max(1.0, direct), knot
