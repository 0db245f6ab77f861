import numpy as np
import pytest

from vropt.data import Dataset, SyntheticSpec, generate_synthetic
from vropt.diagnostics import (
    check_gradient_fd,
    compare_sampling_oracles,
    enumerate_snapshot_law,
    estimate_mse_bound,
    geometric_gap_chisquare,
)
from vropt.errors import ConfigError
from vropt.model import LogisticModel
from vropt.planner import eta_max_nonconvex
from vropt.sampling import Rng


class TestGradientCheck:
    def test_logistic_lam0(self, convex_model):
        rep = check_gradient_fd(convex_model, trials=100, seed=0)
        assert rep.passed, f"worst err {rep.max_rel_err} at {rep.worst_coordinate}"

    def test_nonconvex(self, nonconvex_model):
        rep = check_gradient_fd(nonconvex_model, trials=100, seed=0)
        assert rep.passed

    def test_zero_feature_row_exact(self):
        ds = Dataset([0, 0], [], [], [1.0], d=3)
        model = LogisticModel(ds, lam=0.25)
        x = np.array([0.5, -1.0, 2.0])
        assert np.array_equal(model.component_gradient(0, x), 0.25 * x)
        rep = check_gradient_fd(model, trials=10, seed=1)
        assert rep.max_rel_err < 1e-9


class TestEnumeration:
    def test_m2_t3_masses(self):
        rep = enumerate_snapshot_law(2, 3)[-1]
        assert np.allclose(rep.enumerated, [1 / 8, 1 / 8, 1 / 4, 1 / 2],
                           atol=1e-15)
        assert abs(rep.total_mass - 1.0) <= 1e-15

    def test_m1_all_mass_at_t(self):
        for rep in enumerate_snapshot_law(1, 6):
            expected = np.zeros(rep.t + 1)
            expected[rep.t] = 1.0
            assert np.array_equal(rep.enumerated, expected)

    def test_m5_t10_tight(self):
        rep = enumerate_snapshot_law(5, 10)[-1]
        assert rep.max_discrepancy <= 1e-12

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_full_grid_passes(self, m):
        assert all(r.passed for r in enumerate_snapshot_law(m, 10))

    def test_refuses_large_t(self):
        with pytest.raises(ConfigError):
            enumerate_snapshot_law(2, 21)


class TestMseBounds:
    def test_t0_identically_zero(self, convex_model):
        reps = estimate_mse_bound(convex_model, "convex",
                                  eta=0.5 / convex_model.L, horizon=1,
                                  resamples=50, seed=0)
        assert reps[0].estimate == 0.0 and reps[0].passed

    def test_convex_bound_holds(self, convex_model):
        reps = estimate_mse_bound(convex_model, "convex",
                                  eta=0.5 / convex_model.L, horizon=8,
                                  resamples=2000, seed=7)
        assert all(r.passed for r in reps)

    def test_nonconvex_bound_holds(self, nonconvex_model):
        eta = eta_max_nonconvex(5, nonconvex_model.L)
        reps = estimate_mse_bound(nonconvex_model, "nonconvex", eta=eta,
                                  horizon=8, resamples=2000, seed=7)
        assert all(r.passed for r in reps)

    def test_eta_out_of_range(self, convex_model):
        with pytest.raises(ConfigError):
            estimate_mse_bound(convex_model, "convex",
                               eta=2.5 / convex_model.L, horizon=3)

    def test_large_instance_refused(self):
        ds = generate_synthetic(SyntheticSpec(n=80, d=5, seed=0))
        model = LogisticModel(ds, lam=0.0)
        with pytest.raises(ConfigError):
            estimate_mse_bound(model, "convex", eta=0.1 / model.L, horizon=2)


class TestSamplingOracles:
    def test_identical_rows_degenerate_symmetry(self):
        ds = Dataset(np.arange(0, 17, 2), [0, 1] * 8, [1.0, 2.0] * 8, [1.0] * 8,
                     d=2)
        model = LogisticModel(ds, lam=0.0)
        rep = compare_sampling_oracles(model, np.array([0.3, -0.2]),
                                       np.zeros(2))
        # identical rows: all three distributions coincide, variances equal
        assert np.allclose(rep.p_optimal, 1 / 8, atol=1e-12)
        assert rep.variance_optimal == pytest.approx(rep.variance_uniform,
                                                     rel=1e-12)
        assert rep.variance_optimal == pytest.approx(rep.variance_lipschitz,
                                                     rel=1e-12)

    def test_heterogeneous_orderings(self):
        ds = generate_synthetic(SyntheticSpec(n=10, d=5, spread=10.0, seed=3))
        model = LogisticModel(ds, lam=0.0)
        rep = compare_sampling_oracles(model, np.full(5, 0.4), np.zeros(5))
        assert not rep.degenerate
        assert rep.optimal_beats_uniform
        assert rep.optimal_beats_lipschitz

    def test_p_star_closed_form(self):
        ds = generate_synthetic(SyntheticSpec(n=10, d=5, spread=4.0, seed=5))
        model = LogisticModel(ds, lam=0.0)
        x, x_prev = np.full(5, 0.2), np.full(5, -0.1)
        rep = compare_sampling_oracles(model, x, x_prev)
        idx = np.arange(10)
        G1 = model.component_gradient_batch(idx, np.tile(x, (10, 1)))
        G2 = model.component_gradient_batch(idx, np.tile(x_prev, (10, 1)))
        norms = np.sqrt(np.einsum("ij,ij->i", G1 - G2, G1 - G2))
        assert np.abs(rep.p_optimal - norms / norms.sum()).max() <= 1e-12

    def test_p_star_optimal_over_random_simplex_points(self):
        ds = generate_synthetic(SyntheticSpec(n=10, d=5, spread=6.0, seed=9))
        model = LogisticModel(ds, lam=0.0)
        rep = compare_sampling_oracles(model, np.full(5, 0.3), np.zeros(5))
        rng = Rng(17)
        n = 10
        for _ in range(25):
            raw = np.array([-np.log(1 - rng.random()) for _ in range(n)])
            p = raw / raw.sum()
            idx = np.arange(n)
            G1 = model.component_gradient_batch(idx, np.tile(np.full(5, 0.3), (n, 1)))
            G2 = model.component_gradient_batch(idx, np.tile(np.zeros(5), (n, 1)))
            nsq = np.einsum("ij,ij->i", G1 - G2, G1 - G2)
            val = float((nsq / p).sum() / n ** 2)
            assert rep.variance_optimal <= val * (1 + 1e-12)

    def test_degenerate_same_points(self, convex_model):
        x = np.full(convex_model.d, 0.7)
        rep = compare_sampling_oracles(convex_model, x, x)
        assert rep.degenerate


class TestChiSquareHelper:
    def test_accepts_true_geometric(self):
        m = 5
        flags = Rng(3, 1).below_block(m, 600_000) == 0
        gaps = np.diff(np.flatnonzero(flags))[:100_000]
        assert geometric_gap_chisquare(gaps, m).passed

    def test_rejects_wrong_mean(self):
        m = 5
        flags = Rng(3, 1).below_block(m, 600_000) == 0
        gaps = np.diff(np.flatnonzero(flags))[:100_000]
        assert not geometric_gap_chisquare(gaps, 2).passed
