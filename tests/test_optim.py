import math

import numpy as np
import pytest

from vropt.data import Dataset, SyntheticSpec, generate_synthetic
from vropt.errors import ConfigError, DivergenceError
from vropt.model import LogisticModel, SparseRow
from vropt.optim import (
    OptimizerConfig,
    c_eta,
    eta_max_nonconvex,
    ifo_count,
    lambda_last_iterate,
    lambda_loopless_sc,
    plan_step_size,
    run,
    sigma_geometric,
    theta_strongly_convex,
    validate_config,
)
from vropt.sampling import STREAM_OUTPUT, Rng, draw_uniform_index

from helpers import make_homogeneous_dataset


@pytest.fixture(scope="module")
def sc200():
    """n=200 strongly convex logistic with kappa = 20."""
    ds = generate_synthetic(
        SyntheticSpec(n=200, d=10, spread=1.5, noise_rate=0.1, seed=42))
    base = LogisticModel(ds, lam=0.0)
    return LogisticModel(ds, lam=base.L / 19.0)


def single_row_model(values, lam):
    vals = np.asarray(values, dtype=np.float64)
    idx = np.flatnonzero(vals).astype(np.int64)
    row = SparseRow(indices=idx, values=vals[idx], label=1.0)
    return LogisticModel(Dataset(rows=(row,), d=len(vals)), lam=lam)


class TestConfigValidation:
    def test_t_and_s_exclusive(self):
        with pytest.raises(ConfigError):
            validate_config(OptimizerConfig("L2S", eta=0.1, m=2, T=5, S=5))

    def test_missing_horizon(self):
        with pytest.raises(ConfigError):
            validate_config(OptimizerConfig("SARAH", eta=0.1, m=2, T=5))
        with pytest.raises(ConfigError):
            validate_config(OptimizerConfig("GD", eta=0.1, S=5))

    def test_svrg_m0_forbidden(self):
        with pytest.raises(ConfigError):
            validate_config(OptimizerConfig("SVRG", eta=0.1, m=0, S=3))

    def test_l2s_needs_m(self):
        with pytest.raises(ConfigError):
            validate_config(OptimizerConfig("L2S", eta=0.1, m=0, T=3))

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            validate_config(OptimizerConfig("ADAM", eta=0.1, T=3))

    def test_bad_eta(self):
        with pytest.raises(ConfigError):
            validate_config(OptimizerConfig("GD", eta=0.0, T=3))

    def test_output_rule_mismatch(self):
        with pytest.raises(ConfigError):
            validate_config(OptimizerConfig(
                "SARAH", eta=0.1, m=2, S=1,
                output_rule="last-iterate"))
        validate_config(OptimizerConfig(
            "SARAH", eta=0.1, m=2, S=1,
            output_rule="uniform-random-iterate"))


class TestGD:
    def test_zero_steps(self, sc_model):
        res = run(sc_model, OptimizerConfig("GD", eta=0.1, T=0))
        assert res.total_ifo == 0
        assert np.array_equal(res.x_out, np.zeros(sc_model.d))

    def test_monotone_descent_single_component(self):
        model = single_row_model([2.0, -1.0], lam=0.3)
        res = run(model, OptimizerConfig(
            "GD", eta=1.0 / model.L, T=40, record_every_pass=1.0))
        assert np.all(np.diff(res.trace.objective) <= 1e-15)

    def test_ifo_is_nT(self, sc_model):
        res = run(sc_model, OptimizerConfig("GD", eta=0.5 / sc_model.L, T=7))
        assert ifo_count(res) == sc_model.n * 7

    def test_linear_convergence_measured(self, sc_model):
        # ||x_T - x*||^2 <= c^T ||x_0 - x*||^2 with measured c < 1
        eta = 1.0 / sc_model.L
        ref = run(sc_model, OptimizerConfig("GD", eta=eta, T=4000,
                                            record_every_pass=None))
        x_star = ref.x_out
        res = run(sc_model, OptimizerConfig("GD", eta=eta, T=60,
                                            record_iterates=True,
                                            record_every_pass=None))
        dists = ((res.iterates - x_star) ** 2).sum(axis=1)
        c = (dists[-1] / dists[0]) ** (1.0 / 60)
        assert c < 1.0


class TestSGD:
    def test_matches_gd_for_single_component(self):
        model = single_row_model([1.5, -0.5], lam=0.2)
        sched = lambda k: 1.0 / (model.L * (k + 1))
        a = run(model, OptimizerConfig("SGD", eta=1.0 / model.L, T=40, seed=7,
                                       eta_schedule=sched, record_iterates=True))
        b = run(model, OptimizerConfig("GD", eta=1.0 / model.L, T=40, seed=7,
                                       eta_schedule=sched, record_iterates=True))
        assert np.array_equal(a.iterates, b.iterates)
        assert np.array_equal(a.trace.objective, b.trace.objective)

    def test_bit_identical_across_runs(self, sc_model):
        cfg = OptimizerConfig("SGD", eta=1.0 / sc_model.L,
                              T=30 * sc_model.n, seed=5)
        a, b = run(sc_model, cfg), run(sc_model, cfg)
        assert np.array_equal(a.x_out, b.x_out)
        assert np.array_equal(a.trace.grad_sq, b.trace.grad_sq)

    def test_gradient_norm_shrinks_tenfold(self, sc200):
        res = run(sc200, OptimizerConfig(
            "SGD", eta=1.0 / sc200.L, T=50 * sc200.n, seed=0,
            record_every_pass=None))
        g0 = sc200.grad_sq_norms(np.zeros(sc200.d)[None])[0]
        gT = sc200.grad_sq_norms(res.x_out[None])[0]
        assert gT <= g0 / 10.0

    def test_ifo_is_T(self, sc_model):
        res = run(sc_model, OptimizerConfig("SGD", eta=0.1, T=37, seed=1))
        assert res.total_ifo == 37


class TestSVRG:
    def test_estimator_unbiased_at_frozen_points(self, sc_model):
        # averaging v over all i reproduces grad F(x) exactly
        x = np.full(sc_model.d, 0.2)
        x_tilde = np.full(sc_model.d, -0.1)
        mu = sc_model.full_gradient(x_tilde)
        mean_v = np.mean([
            sc_model.component_gradient(i, x)
            - sc_model.component_gradient(i, x_tilde) + mu
            for i in range(sc_model.n)], axis=0)
        target = sc_model.full_gradient(x)
        assert np.abs(mean_v - target).max() < 1e-13

    def test_geometric_decay_of_restart_gradients(self, sc200):
        res = run(sc200, OptimizerConfig(
            "SVRG", eta=0.2 / sc200.L, m=sc200.n, S=5, seed=3,
            record_every_pass=None))
        norms = sc200.grad_sq_norms(np.array(res.restart_points))
        assert np.all(norms[1:] / norms[:-1] < 1.0)

    def test_ifo_accounting(self, sc_model):
        res = run(sc_model, OptimizerConfig(
            "SVRG", eta=0.2 / sc_model.L, m=9, S=4, seed=0))
        assert res.total_ifo == 4 * (sc_model.n + 2 * 9)


class TestSARAH:
    def test_ifo_is_S_n_plus_2m(self, sc_model):
        res = run(sc_model, OptimizerConfig(
            "SARAH", eta=0.5 / sc_model.L, m=13, S=3, seed=2))
        assert res.total_ifo == 3 * (sc_model.n + 2 * 13)

    def test_estimator_telescopes(self, sc_model):
        # v_t == v_0 + sum_tau (grad f_{i_tau}(x_tau) - grad f_{i_tau}(x_{tau-1}))
        m = 10
        res = run(sc_model, OptimizerConfig(
            "SARAH", eta=0.5 / sc_model.L, m=m, S=1, seed=4,
            record_iterates=True, record_every_pass=None))
        xs = res.iterates
        v = sc_model.full_gradient(xs[0])
        acc = v.copy()
        for t in range(1, m + 1):
            i = int(res.indices[t - 1])
            acc += (sc_model.component_gradient(i, xs[t])
                    - sc_model.component_gradient(i, xs[t - 1]))
            v = (sc_model.component_gradient(i, xs[t])
                 - sc_model.component_gradient(i, xs[t - 1])) + v
        assert np.abs(acc - v).max() <= 1e-12

    def test_m0_degenerates_to_full_gradient_outer(self, sc_model):
        eta = 0.5 / sc_model.L
        res = run(sc_model, OptimizerConfig(
            "SARAH", eta=eta, m=0, S=5, seed=0, record_every_pass=None))
        gd = run(sc_model, OptimizerConfig(
            "GD", eta=eta, T=5, seed=0, record_every_pass=None))
        assert np.array_equal(res.x_out, gd.x_out)
        assert res.total_ifo == 5 * sc_model.n

    def test_decay_bounded_by_sigma_over_seeds(self, sc200):
        eta = 0.5 / sc200.L
        m = sc200.n
        sigma = sigma_geometric(eta, sc200.L, sc200.mu, m)
        assert sigma < 1.0
        S = 4
        g0 = sc200.grad_sq_norms(np.zeros(sc200.d)[None])[0]
        ratios = []
        for seed in range(50):
            res = run(sc200, OptimizerConfig(
                "SARAH", eta=eta, m=m, S=S, seed=seed,
                record_every_pass=None))
            ratios.append(sc200.grad_sq_norms(res.x_out[None])[0] / g0)
        assert np.mean(ratios) ** (1.0 / S) <= sigma


class TestSarahLastIterate:
    def test_coupled_with_sarah_when_draws_hit_m(self, sc_model):
        m, S = 3, 2

        def output_draws(s):
            r = Rng(s, STREAM_OUTPUT)
            return [draw_uniform_index(r, m + 1) for _ in range(S)]

        seed = next(s for s in range(2000)
                    if all(d == m for d in output_draws(s)))
        eta = 0.5 / sc_model.L
        a = run(sc_model, OptimizerConfig("SARAH", eta=eta, m=m, S=S,
                                          seed=seed, record_iterates=True))
        b = run(sc_model, OptimizerConfig("SARAH-LI", eta=eta, m=m, S=S,
                                          seed=seed, record_iterates=True))
        assert np.array_equal(a.iterates, b.iterates)
        assert np.array_equal(a.x_out, b.x_out)

    def test_lambda_m_formula(self):
        eta_L = 0.5
        theta = 0.9
        m = 12
        expected = 2 * eta_L / (2 - eta_L) + (2 + 2 * eta_L) * theta ** m
        assert lambda_last_iterate(0.5, 1.0, theta, m) == pytest.approx(
            expected, abs=1e-15)

    def test_decay_bounded_by_lambda_m(self, sc200):
        eta = 0.5 / sc200.L
        kappa = sc200.L / sc200.mu
        m = math.ceil(4.5 * kappa)
        theta = theta_strongly_convex(eta, sc200.L, sc200.mu)
        lam_m = lambda_last_iterate(eta, sc200.L, theta, m)
        assert lam_m < 1.0
        S = 3
        g0 = sc200.grad_sq_norms(np.zeros(sc200.d)[None])[0]
        ratios = []
        for seed in range(30):
            res = run(sc200, OptimizerConfig(
                "SARAH-LI", eta=eta, m=m, S=S, seed=seed,
                record_every_pass=None))
            ratios.append(sc200.grad_sq_norms(res.x_out[None])[0] / g0)
        assert np.mean(ratios) ** (1.0 / S) <= lam_m


class TestL2S:
    def test_m1_equals_gd(self, sc_model):
        eta = 0.5 / sc_model.L
        T = 25
        a = run(sc_model, OptimizerConfig("L2S", eta=eta, m=1, T=T, seed=3,
                                          record_iterates=True))
        b = run(sc_model, OptimizerConfig("GD", eta=eta, T=T + 1, seed=3,
                                          record_iterates=True))
        assert np.array_equal(a.iterates, b.iterates)
        assert a.total_ifo == b.total_ifo == sc_model.n * (T + 1)

    def test_expected_ifo_per_iteration(self):
        # smoke-scale version of the accounting law n/m + 2(1 - 1/m)
        ds = generate_synthetic(SyntheticSpec(n=50, d=4, seed=0))
        model = LogisticModel(ds, lam=0.1)
        T = 20_000
        res = run(model, OptimizerConfig(
            "L2S", eta=0.3 / model.L, m=5, T=T, seed=9,
            record_every_pass=None))
        per_iter = (res.total_ifo - model.n) / T
        # the realized coin sequence obeys the 1/m law
        p_hat = float(res.bernoulli.mean())
        assert abs(p_hat - 1 / 5) <= 3 * math.sqrt((1 / 5) * (4 / 5) / T)
        mean = model.n / 5 + 2 * (1 - 1 / 5)
        x = np.array([model.n, 2.0])
        p = np.array([1 / 5, 4 / 5])
        var = float(p @ x ** 2 - (p @ x) ** 2)
        assert abs(per_iter - mean) <= 4 * math.sqrt(var / T)

    def test_ifo_recomputable_from_bernoulli(self, sc_model):
        res = run(sc_model, OptimizerConfig(
            "L2S", eta=0.5 / sc_model.L, m=4, T=300, seed=8))
        snaps = int(res.bernoulli.sum())
        expected = sc_model.n + snaps * sc_model.n + 2 * (300 - snaps)
        assert res.total_ifo == expected
        assert res.snapshot_count == snaps + 1  # + initial anchor

    def test_output_drawn_from_iterates(self, sc_model):
        res = run(sc_model, OptimizerConfig(
            "L2S", eta=0.5 / sc_model.L, m=4, T=50, seed=12,
            record_iterates=True))
        hits = [t for t in range(1, 51)
                if np.array_equal(res.iterates[t], res.x_out)]
        assert hits, "output must be one of x_1..x_T"


class TestL2SSC:
    def test_step_back_bit_exact(self, sc_model):
        res = run(sc_model, OptimizerConfig(
            "L2S-SC", eta=0.5 / sc_model.L, m=4, S=6, seed=21,
            record_iterates=True, record_every_pass=None))
        snap_iters = [t for t, flag in enumerate(res.bernoulli, start=1)
                      if flag == 1]
        assert snap_iters
        for t in snap_iters:
            assert np.array_equal(res.iterates[t], res.iterates[t - 1])

    def test_no_step_back_variant_differs(self, sc_model):
        base = dict(algorithm="L2S-SC", eta=0.5 / sc_model.L, m=4, S=6,
                    seed=21, record_every_pass=None)
        a = run(sc_model, OptimizerConfig(**base))
        b = run(sc_model, OptimizerConfig(**base, step_back=False))
        assert not np.array_equal(a.x_out, b.x_out)

    def test_lambda_formula(self):
        eta_L, theta, m = 0.5, 0.95, 40
        expected = (2 * eta_L / (2 - eta_L)
                    + (2 + 2 * eta_L) / (m - 1)
                    * theta * (1 - 1 / m) / (1 - theta * (1 - 1 / m)))
        assert lambda_loopless_sc(0.5, 1.0, theta, m) == pytest.approx(
            expected, abs=1e-15)

    def test_decay_bounded_by_feasible_certificate(self, sc200):
        # with m ~ 9 kappa the epoch certificate dips below one and bounds
        # the measured decay
        eta = 0.5 / sc200.L
        kappa = sc200.L / sc200.mu
        m = math.ceil(9.0 * kappa)
        theta = theta_strongly_convex(eta, sc200.L, sc200.mu)
        lam = lambda_loopless_sc(eta, sc200.L, theta, m)
        assert lam < 1.0
        S = 3
        g0 = sc200.grad_sq_norms(np.zeros(sc200.d)[None])[0]
        ratios = []
        for seed in range(30):
            res = run(sc200, OptimizerConfig(
                "L2S-SC", eta=eta, m=m, S=S, seed=seed,
                record_every_pass=None))
            ratios.append(sc200.grad_sq_norms(res.x_out[None])[0] / g0)
        assert np.mean(ratios) <= lam ** S

    def test_total_iterations_recorded_and_random(self, sc_model):
        lens = {run(sc_model, OptimizerConfig(
            "L2S-SC", eta=0.5 / sc_model.L, m=5, S=3, seed=seed,
            record_every_pass=None)).total_iterations
            for seed in range(8)}
        assert len(lens) > 1  # the horizon is a random variable

    def test_s_zero_rejected(self, sc_model):
        with pytest.raises(ConfigError):
            run(sc_model, OptimizerConfig("L2S-SC", eta=0.1, m=4, S=0))


class TestD2S:
    def test_homogeneous_reduces_to_sarah(self):
        model = LogisticModel(make_homogeneous_dataset(n=16, d=24), lam=0.1)
        assert model.lipschitz.min() == model.lipschitz.max()
        eta = 0.5 / model.L
        a = run(model, OptimizerConfig("SARAH", eta=eta, m=8, S=4, seed=11,
                                       record_iterates=True))
        b = run(model, OptimizerConfig("D2S", eta=eta, m=8, S=4, seed=11,
                                       record_iterates=True))
        assert np.array_equal(a.iterates, b.iterates)
        assert np.array_equal(a.x_out, b.x_out)
        assert a.total_ifo == b.total_ifo

    def test_weighted_increment_conditionally_unbiased(self, sc_model):
        from vropt.sampling import build_importance_table

        table = build_importance_table(sc_model.lipschitz)
        x = np.full(sc_model.d, 0.15)
        x_prev = np.full(sc_model.d, -0.05)
        acc = np.zeros(sc_model.d)
        for i in range(sc_model.n):
            diff = (sc_model.component_gradient(i, x)
                    - sc_model.component_gradient(i, x_prev))
            acc += table.p[i] * diff / (sc_model.n * table.p[i])
        target = sc_model.full_gradient(x) - sc_model.full_gradient(x_prev)
        assert np.abs(acc - target).max() < 1e-13

    def test_ifo_matches_sarah_accounting(self, sc_model):
        res = run(sc_model, OptimizerConfig(
            "D2S", eta=0.5 / sc_model.L_bar, m=7, S=3, seed=0))
        assert res.total_ifo == 3 * (sc_model.n + 2 * 7)


class TestPlanner:
    def test_nonconvex_eta_values(self):
        L = 2.0
        assert eta_max_nonconvex(2, L) == pytest.approx(1 / (2 * L), abs=1e-15)
        assert eta_max_nonconvex(6, L) == pytest.approx(1 / (3 * L), abs=1e-15)

    def test_theta_per_component(self):
        # eta = 1/(2L), kappa = 1: theta = 1 - 2*(1/2)/(1+1) = 1/2
        assert theta_strongly_convex(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_c_eta_two_thirds(self):
        assert c_eta(0.5, 1.0) == pytest.approx(2 / 3, abs=1e-15)

    def test_sigma_certificate_below_seven_ninths(self, sc_model):
        kbar = sc_model.L_bar / sc_model.mu
        m = math.ceil(4.5 * kbar)
        plan = plan_step_size(sc_model, "D2S", "strongly-convex", m)
        assert plan.eta == 0.5 / sc_model.L_bar
        assert plan.certificate["sigma_m"] < 7 / 9
        assert plan.valid

    def test_convex_regimes(self, convex_model):
        plan = plan_step_size(convex_model, "L2S", "convex-n-independent", 8)
        assert plan.eta == 0.5 / convex_model.L
        assert plan.certificate["C_eta"] == pytest.approx(2 / 3, abs=1e-15)
        ndep = plan_step_size(convex_model, "L2S", "convex-n-dependent", 16)
        assert ndep.eta == eta_max_nonconvex(16, convex_model.L)
        assert ndep.valid

    def test_mu_zero_rejected_for_sc_plan(self, convex_model):
        with pytest.raises(ConfigError):
            plan_step_size(convex_model, "SARAH", "strongly-convex", 5)

    def test_unknown_regime(self, sc_model):
        with pytest.raises(ConfigError):
            plan_step_size(sc_model, "SARAH", "magic", 5)


class TestRunInvariants:
    ALGOS = [
        ("GD", dict(T=10)),
        ("SVRG", dict(m=8, S=3)),
        ("SARAH", dict(m=8, S=3)),
        ("SARAH-LI", dict(m=8, S=3)),
        ("L2S", dict(m=4, T=60)),
        ("L2S-SC", dict(m=4, S=3)),
        ("D2S", dict(m=8, S=3)),
    ]

    @pytest.mark.parametrize("algo,extra", ALGOS)
    def test_first_step_descent(self, sc_model, algo, extra):
        eta = (0.5 / sc_model.L_bar) if algo == "D2S" else (0.5 / sc_model.L)
        res = run(sc_model, OptimizerConfig(algorithm=algo, eta=eta, seed=2,
                                            **extra))
        assert res.f1 <= res.f0 + 1e-12 * max(1.0, abs(res.f0))

    @pytest.mark.parametrize("algo,extra", ALGOS)
    def test_snapshot_gradients_exact(self, sc_model, algo, extra):
        eta = (0.5 / sc_model.L_bar) if algo == "D2S" else (0.5 / sc_model.L)
        res = run(sc_model, OptimizerConfig(
            algorithm=algo, eta=eta, seed=6, record_iterates=True,
            record_every_pass=None, **extra))
        assert len(res.snapshot_grads) == res.snapshot_count
        for t, x, v in zip(res.snapshot_iters, res.snapshot_points,
                           res.snapshot_grads):
            recomputed = sc_model.full_gradient(x)
            assert np.array_equal(recomputed, v), f"snapshot at t={t} not exact"

    @pytest.mark.parametrize("algo,extra", ALGOS + [("SGD", dict(T=100))])
    def test_bit_reproducible(self, sc_model, algo, extra):
        eta = (0.5 / sc_model.L_bar) if algo == "D2S" else (0.5 / sc_model.L)
        cfg = OptimizerConfig(algorithm=algo, eta=eta, seed=13, **extra)
        a, b = run(sc_model, cfg), run(sc_model, cfg)
        assert np.array_equal(a.x_out, b.x_out)
        assert a.total_ifo == b.total_ifo
        assert np.array_equal(a.trace.objective, b.trace.objective)
        assert np.array_equal(a.trace.grad_sq, b.trace.grad_sq)

    def test_divergence_error_names_iteration(self, sc_model):
        with pytest.raises(DivergenceError) as err:
            run(sc_model, OptimizerConfig(
                "GD", eta=40.0 / sc_model.mu, T=500, record_every_pass=None))
        assert err.value.iteration >= 1

    def test_max_ifo_stops_run(self, sc_model):
        budget = 5 * sc_model.n
        res = run(sc_model, OptimizerConfig(
            "SARAH", eta=0.5 / sc_model.L, m=sc_model.n, S=100, seed=0,
            max_ifo=budget))
        assert res.stopped_early
        assert res.total_ifo >= budget
        assert res.total_ifo <= budget + sc_model.n  # overshoot < one snapshot

    def test_stop_grad_sq_outputs_certified_point(self, sc200):
        res = run(sc200, OptimizerConfig(
            "SARAH", eta=0.5 / sc200.L, m=sc200.n, S=400, seed=1,
            record_every_pass=None, stop_grad_sq=1e-8))
        assert res.reached_grad_target
        g = sc200.full_gradient(res.x_out)
        assert float(g @ g) <= 1e-8

    def test_changing_m_keeps_index_stream(self, sc_model):
        # separate substreams: the i_t sequence must not depend on m
        a = run(sc_model, OptimizerConfig(
            "L2S", eta=0.5 / sc_model.L, m=3, T=80, seed=5,
            record_iterates=True))
        b = run(sc_model, OptimizerConfig(
            "L2S", eta=0.5 / sc_model.L, m=30, T=80, seed=5,
            record_iterates=True))
        shared = min(len(a.indices), len(b.indices))
        assert shared > 10
        assert np.array_equal(a.indices[:shared], b.indices[:shared])
