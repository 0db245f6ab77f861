"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with -s or -rA to see them).  Statistical checks use 4-sigma margins and
pinned seeds, so the false-failure rate is below 1e-4 per check.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from vropt import bench
from vropt.data import (
    SyntheticSpec,
    generate_synthetic,
    parse_libsvm,
    write_libsvm,
)
from vropt.diagnostics import (
    check_gradient_fd,
    enumerate_snapshot_law,
    estimate_mse_bound,
)
from vropt.model import LogisticModel, NonconvexLogisticModel
from vropt.optim import (
    OptimizerConfig,
    eta_max_nonconvex,
    lambda_last_iterate,
    lambda_loopless_sc,
    plan_step_size,
    run,
    theta_strongly_convex,
)
from helpers import make_homogeneous_dataset


def report(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {num:02d}] {status}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return passed


def timed(budget_s):
    """Wall-clock guard for the criterion's stated runtime budget."""
    start = time.perf_counter()

    def check():
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s over {budget_s}s"
        return elapsed

    return check


# -- 1: snapshot probability law ------------------------------------------

def test_criterion_01_snapshot_probability_law():
    done = timed(5.0)
    worst = 0.0
    for m in (2, 3, 5):
        for rep in enumerate_snapshot_law(m, 10):
            worst = max(worst, rep.max_discrepancy,
                        abs(rep.total_mass - 1.0))
            assert rep.passed
    elapsed = done()
    assert report(1, "snapshot scheduling law matches exhaustive enumeration",
                  worst <= 1e-12, f"max discrepancy {worst:.2e}, {elapsed:.1f}s")


# -- 2: gradient oracles ---------------------------------------------------

def test_criterion_02_gradient_oracles():
    done = timed(5.0)
    ds = generate_synthetic(SyntheticSpec(n=20, d=5, spread=2.0,
                                          noise_rate=0.1, seed=11))
    worst = 0.0
    for model in (LogisticModel(ds, lam=0.0), LogisticModel(ds, lam=0.05),
                  NonconvexLogisticModel(ds, alpha=1.0)):
        rep = check_gradient_fd(model, trials=100, tolerance=1e-6, seed=5)
        worst = max(worst, rep.max_rel_err)
        assert rep.passed
    elapsed = done()
    assert report(2, "finite-difference agreement < 1e-6 over 100 trials/loss",
                  worst < 1e-6, f"worst {worst:.2e}, {elapsed:.1f}s")


# -- 3: MSE bounds ---------------------------------------------------------

def test_criterion_03_mse_bounds():
    done = timed(60.0)
    ds = generate_synthetic(SyntheticSpec(n=20, d=5, spread=2.0,
                                          noise_rate=0.1, seed=11))
    convex = LogisticModel(ds, lam=0.0)
    reps_c = estimate_mse_bound(convex, "convex", eta=0.5 / convex.L, m=8,
                                horizon=8, resamples=2000, seed=100)
    noncvx = NonconvexLogisticModel(ds, alpha=1.0)
    reps_n = estimate_mse_bound(noncvx, "nonconvex",
                                eta=eta_max_nonconvex(8, noncvx.L), m=8,
                                horizon=8, resamples=2000, seed=100)
    ok = all(r.passed for r in reps_c + reps_n)
    assert ok
    elapsed = done()
    assert report(3, "conditional MSE bounds hold at 4 sigma (convex + "
                     "nonconvex, horizon 8)", ok, f"{elapsed:.1f}s")


# -- 4: linear convergence vs planner certificates --------------------------

def _criterion4_setup():
    ds = generate_synthetic(SyntheticSpec(n=500, d=30, spread=1.2,
                                          noise_rate=0.05, seed=2024))
    base = LogisticModel(ds, lam=0.0)
    model = LogisticModel(ds, lam=base.L / 99.0)  # kappa = 100
    kappa = model.L / model.mu
    m = math.ceil(4.5 * kappa)
    eta = 0.5 / model.L
    theta = theta_strongly_convex(eta, model.L, model.mu)
    return model, m, eta, theta, kappa


def test_criterion_04_linear_convergence_decay_factors():
    done = timed(120.0)
    model, m, eta, theta, kappa = _criterion4_setup()
    lam_m = lambda_last_iterate(eta, model.L, theta, m)
    lam_sc = lambda_loopless_sc(eta, model.L, theta, m)
    g0 = model.grad_sq_norms(np.zeros(model.d)[None])[0]
    S = 4
    ratios_li, ratios_sc = [], []
    for seed in range(50):
        r_li = run(model, OptimizerConfig("SARAH-LI", eta=eta, m=m, S=S,
                                          seed=seed, record_every_pass=None))
        ratios_li.append(model.grad_sq_norms(r_li.x_out[None])[0] / g0)
        r_sc = run(model, OptimizerConfig("L2S-SC", eta=eta, m=m, S=S,
                                          seed=seed, record_every_pass=None))
        ratios_sc.append(model.grad_sq_norms(r_sc.x_out[None])[0] / g0)
    decay_li = float(np.mean(ratios_li)) ** (1.0 / S)
    decay_sc = float(np.mean(ratios_sc)) ** (1.0 / S)
    assert lam_m < 1.0
    assert decay_li <= lam_m
    assert decay_sc <= lam_sc
    elapsed = done()
    assert report(4, "50-seed mean decay/epoch within certificates "
                     "(kappa=100, m=ceil(4.5 kappa))",
                  decay_li <= lam_m and decay_sc <= lam_sc,
                  f"SARAH-LI {decay_li:.3f}<=lambda_m={lam_m:.3f}, "
                  f"L2S-SC {decay_sc:.3f}<=lambda={lam_sc:.3f}, {elapsed:.0f}s")


def test_criterion_04_l2s_sc_certificate_below_one():
    """Stated sub-clause: both certificates < 1 at m = ceil(4.5 kappa).

    For the step-back variant the epoch certificate is
    2*eta*L/(2-eta*L) + (2+2*eta*L)/(m-1) * theta*q/(1-theta*q), q = 1-1/m.
    At eta = 0.5/L the first term is 2/3 and with theta = 1 - 1/(1+kappa) the
    second term tends to (2+2*eta*L) / ((1-theta)*m) ~ 3/(m/kappa) * (1/kappa)
    ... = 6/11 at m = 4.5*kappa for every large kappa, so the sum is ~1.21
    regardless of kappa: m must be ~8*kappa or larger for this certificate to
    dip below one.  The assertion is kept as stated and fails honestly.
    """
    model, m, eta, theta, kappa = _criterion4_setup()
    lam_sc = lambda_loopless_sc(eta, model.L, theta, m)
    report(4, "step-back epoch certificate < 1 at m=ceil(4.5 kappa)",
           lam_sc < 1.0, f"lambda={lam_sc:.4f} (needs m >~ 8 kappa)")
    assert lam_sc < 1.0, (
        f"lambda = {lam_sc:.4f} >= 1 at m = 4.5*kappa: infeasible for the "
        "epoch certificate; see decisions ledger"
    )


# -- 5: convex O(1/T) rate --------------------------------------------------

def test_criterion_05_convex_rate_halves_with_double_T():
    done = timed(120.0)
    ds = generate_synthetic(SyntheticSpec(n=1024, d=16, spread=1.5,
                                          noise_rate=0.1, seed=77))
    model = LogisticModel(ds, lam=0.0)
    eta = 0.5 / model.L
    m = 32

    def mean_out_criterion(T, seed):
        res = run(model, OptimizerConfig("L2S", eta=eta, m=m, T=T, seed=seed,
                                         record_every_pass=None,
                                         record_iterates=True))
        # E[||grad F(x_a)||^2 | trajectory]: the output index is uniform on
        # {1..T}, so the conditional mean is the trajectory average
        return float(model.grad_sq_norms(res.iterates[1:T + 1]).mean())

    small = [mean_out_criterion(20_000, seed) for seed in range(20)]
    large = [mean_out_criterion(40_000, seed) for seed in range(20)]
    ratio = float(np.mean(small) / np.mean(large))
    assert 1.4 <= ratio <= 2.9
    elapsed = done()
    assert report(5, "doubling T reduces E||grad F(x_a)||^2 by ~2x "
                     "(20-seed mean)", 1.4 <= ratio <= 2.9,
                  f"ratio {ratio:.2f}, {elapsed:.0f}s")


# -- 6: IFO accounting -------------------------------------------------------

def test_criterion_06_ifo_accounting():
    done = timed(10.0)
    ds = generate_synthetic(SyntheticSpec(n=100, d=8, spread=1.5, seed=7))
    model = LogisticModel(ds, lam=0.01)
    n, m, T = model.n, 10, 100_000
    res = run(model, OptimizerConfig("L2S", eta=0.5 / model.L, m=m, T=T,
                                     seed=0, record_every_pass=None))
    per_iter = (res.total_ifo - n) / T
    mean = n / m + 2 * (1 - 1 / m)          # = 11.8
    p = 1.0 / m
    var = p * n ** 2 + (1 - p) * 4 - mean ** 2
    sigma = math.sqrt(var / T)
    ok_l2s = abs(per_iter - mean) <= 4 * sigma

    sarah = run(model, OptimizerConfig("SARAH", eta=0.5 / model.L, m=17,
                                       S=6, seed=3, record_every_pass=None))
    ok_sarah = sarah.total_ifo == 6 * (n + 2 * 17)
    assert ok_l2s and ok_sarah
    elapsed = done()
    assert report(6, "mean IFO/iter = n/m + 2(1-1/m) at 4 sigma; SARAH "
                     "totals exact", ok_l2s and ok_sarah,
                  f"measured {per_iter:.3f} vs 11.8 +- {4 * sigma:.3f}, "
                  f"{elapsed:.1f}s")


# -- 7: D2S advantage --------------------------------------------------------

def test_criterion_07_d2s_advantage():
    done = timed(120.0)
    ds = generate_synthetic(SyntheticSpec(n=256, d=12, spread=10.0,
                                          noise_rate=0.05, seed=31))
    base = LogisticModel(ds, lam=0.0)
    model = LogisticModel(ds, lam=base.L_bar / 30.0)
    assert model.L / model.L_bar >= 5.0
    kbar = model.L_bar / model.mu
    m = math.ceil(4.5 * kbar)
    plan = plan_step_size(model, "D2S", "strongly-convex", m)
    assert plan.valid and plan.certificate["sigma_m"] < 7 / 9

    def ifo_to_target(algo, eta, seed):
        res = run(model, OptimizerConfig(
            algorithm=algo, eta=eta, m=m, S=5000, seed=seed,
            record_every_pass=None, stop_grad_sq=1e-8, max_ifo=8_000_000))
        return res.total_ifo if res.reached_grad_target else 10 ** 9

    d2s = [ifo_to_target("D2S", plan.eta, seed) for seed in range(20)]
    sarah = [ifo_to_target("SARAH", 0.5 / model.L, seed) for seed in range(20)]
    med_d, med_s = float(np.median(d2s)), float(np.median(sarah))
    assert med_d < med_s
    elapsed = done()
    assert report(7, "D2S reaches 1e-8 with strictly fewer IFO than SARAH "
                     "(20-seed median); sigma_m < 7/9",
                  med_d < med_s,
                  f"median IFO {med_d:.0f} vs {med_s:.0f}, "
                  f"sigma_m={plan.certificate['sigma_m']:.4f}, {elapsed:.0f}s")


# -- 8: bit-exact reductions -------------------------------------------------

def test_criterion_08_bit_exact_reductions():
    ds = generate_synthetic(SyntheticSpec(n=12, d=4, spread=2.0, seed=5))
    model = LogisticModel(ds, lam=0.05)
    eta = 0.5 / model.L

    a = run(model, OptimizerConfig("L2S", eta=eta, m=1, T=25, seed=3,
                                   record_iterates=True))
    b = run(model, OptimizerConfig("GD", eta=eta, T=26, seed=3,
                                   record_iterates=True))
    l2s_gd = np.array_equal(a.iterates, b.iterates) and \
        a.total_ifo == b.total_ifo

    hom = LogisticModel(make_homogeneous_dataset(n=16, d=24), lam=0.1)
    c = run(hom, OptimizerConfig("SARAH", eta=0.5 / hom.L, m=8, S=4, seed=11,
                                 record_iterates=True))
    d = run(hom, OptimizerConfig("D2S", eta=0.5 / hom.L, m=8, S=4, seed=11,
                                 record_iterates=True))
    d2s_sarah = np.array_equal(c.iterates, d.iterates) and \
        np.array_equal(c.x_out, d.x_out)

    from vropt.data import Dataset
    from vropt.model import SparseRow
    row = SparseRow(indices=np.array([0, 1], dtype=np.int64),
                    values=np.array([1.5, -0.5]), label=1.0)
    m1 = LogisticModel(Dataset(rows=(row,), d=2), lam=0.2)
    sched = lambda k: 1.0 / (m1.L * (k + 1))
    e = run(m1, OptimizerConfig("SGD", eta=1.0 / m1.L, T=40, seed=7,
                                eta_schedule=sched, record_iterates=True))
    f = run(m1, OptimizerConfig("GD", eta=1.0 / m1.L, T=40, seed=7,
                                eta_schedule=sched, record_iterates=True))
    sgd_gd = np.array_equal(e.iterates, f.iterates)

    assert l2s_gd and d2s_sarah and sgd_gd
    assert report(8, "L2S(m=1)=GD, D2S(homogeneous)=SARAH, SGD(n=1)=GD, "
                     "all bit-exact", l2s_gd and d2s_sarah and sgd_gd)


# -- 9: first-step descent ---------------------------------------------------

def test_criterion_09_first_step_descent_grid():
    grid = []
    ds = generate_synthetic(SyntheticSpec(n=40, d=6, spread=3.0,
                                          noise_rate=0.1, seed=8))
    models = [LogisticModel(ds, lam=0.0), LogisticModel(ds, lam=0.1),
              NonconvexLogisticModel(ds, alpha=0.5)]
    algos = [("GD", dict(T=5)), ("SVRG", dict(m=6, S=2)),
             ("SARAH", dict(m=6, S=2)), ("SARAH-LI", dict(m=6, S=2)),
             ("L2S", dict(m=3, T=20)), ("L2S-SC", dict(m=3, S=2)),
             ("D2S", dict(m=6, S=2))]
    for model in models:
        if model.mu == 0.0:
            algos_here = [a for a in algos if a[0] != "D2S"] \
                if model.convexity == "nonconvex" else algos
        else:
            algos_here = algos
        for algo, extra in algos_here:
            cap = model.L_bar if algo == "D2S" else model.L
            for frac in (0.3, 0.6, 0.95):
                res = run(model, OptimizerConfig(
                    algorithm=algo, eta=frac / cap, seed=1,
                    record_every_pass=None, **extra))
                ok = res.f1 <= res.f0 + 1e-12 * max(1.0, abs(res.f0))
                grid.append(ok)
                assert ok, f"descent failed: {algo} eta={frac}/L on {model.convexity}"
    assert report(9, f"F(x1) <= F(x0) on all {len(grid)} grid runs with "
                     "eta < 1/L", all(grid))


# -- 10: nonconvex substitute ------------------------------------------------

def test_criterion_10_nonconvex_reaches_small_gradient():
    done = timed(120.0)
    ds = generate_synthetic(SyntheticSpec(n=512, d=32, spread=1.5,
                                          noise_rate=0.1, seed=99))
    model = NonconvexLogisticModel(ds, alpha=1.0)
    n = model.n
    m = math.isqrt(n - 1) + 1
    eta = eta_max_nonconvex(m, model.L)
    budget = 100 * n
    mins = []
    for seed in range(20):
        res = run(model, OptimizerConfig(
            "L2S", eta=eta, m=m, T=budget, seed=seed, max_ifo=budget,
            record_every_pass=None, record_iterates=True))
        mins.append(float(model.grad_sq_norms(res.iterates[1:]).min()))
    med = float(np.median(mins))
    assert med < 1e-4
    elapsed = done()
    assert report(10, "nonconvex: median min_t ||grad F||^2 < 1e-4 within "
                      "100 passes, no divergence", med < 1e-4,
                  f"median {med:.2e}, {elapsed:.0f}s")


# -- 11: determinism ---------------------------------------------------------

def test_criterion_11_bit_identical_reruns():
    ds = generate_synthetic(SyntheticSpec(n=64, d=6, spread=2.0,
                                          noise_rate=0.1, seed=55))
    model = LogisticModel(ds, lam=0.02)
    ok = True
    for algo, extra in [("GD", dict(T=20)), ("SGD", dict(T=500)),
                        ("SVRG", dict(m=10, S=3)), ("SARAH", dict(m=10, S=3)),
                        ("SARAH-LI", dict(m=10, S=3)),
                        ("L2S", dict(m=5, T=200)), ("L2S-SC", dict(m=5, S=3)),
                        ("D2S", dict(m=10, S=3))]:
        eta = (0.5 / model.L_bar) if algo == "D2S" else (0.5 / model.L)
        cfg = OptimizerConfig(algorithm=algo, eta=eta, seed=17,
                              record_iterates=True, **extra)
        a, b = run(model, cfg), run(model, cfg)
        same = (np.array_equal(a.x_out, b.x_out)
                and np.array_equal(a.iterates, b.iterates)
                and np.array_equal(a.trace.objective, b.trace.objective)
                and np.array_equal(a.trace.grad_sq, b.trace.grad_sq)
                and a.total_ifo == b.total_ifo)
        ok = ok and same
        assert same, f"{algo} not bit-reproducible"
    assert report(11, "every (config, seed) reproduces bit-identical traces",
                  ok)


# -- 12: data ----------------------------------------------------------------

REFERENCE_DATASETS = {
    # published constants for the LIBSVM binary datasets:
    # file name candidates, n, d, mean ||a_i||^2/4 at lam=0, usual lam
    "a9a": (("a9a", "a9a.txt"), 32_561, 123, 3.4672, 0.0005),
    "w7a": (("w7a", "w7a.txt"), 24_692, 300, 2.917, 0.005),
    "rcv1": (("rcv1_train.binary", "rcv1.binary", "rcv1_train"),
             20_242, 47_236, 0.25, 0.0001),
}


def test_criterion_12_fixture_round_trip():
    fixtures = Path(__file__).parent / "fixtures"
    ok = True
    for name in ("tiny_pm1.libsvm", "tiny_01.libsvm", "tiny_12.libsvm"):
        ds = parse_libsvm((fixtures / name).read_text(), name=name)
        again = parse_libsvm(write_libsvm(ds), d=ds.d, name=name)
        same = ds.n == again.n and ds.d == again.d and all(
            ra.label == rb.label
            and np.array_equal(ra.indices, rb.indices)
            and np.array_equal(ra.values, rb.values)
            for ra, rb in zip(ds.rows, again.rows))
        ok = ok and same
        assert same
    assert report(12, "bundled LIBSVM fixtures round-trip exactly", ok)


@pytest.mark.parametrize("key", sorted(REFERENCE_DATASETS))
def test_criterion_12_real_dataset_constants(key):
    names, n_ref, d_ref, L_ref, _lam = REFERENCE_DATASETS[key]
    base = os.environ.get(bench.DATA_DIR_ENV)
    path = None
    if base:
        for cand in names:
            p = Path(base) / cand
            if p.exists():
                path = p
                break
    if path is None:
        report(12, f"{key}: published dataset constants", True,
               f"SKIPPED: supply the file via ${bench.DATA_DIR_ENV}")
        pytest.skip(f"real dataset {key} not supplied")
    with open(path) as fh:
        ds = parse_libsvm(fh, d=d_ref, name=key)
    model = LogisticModel(ds, lam=0.0)
    ok = (ds.n == n_ref and ds.d == d_ref
          and abs(model.L_bar - L_ref) < 1e-3)
    assert ds.n == n_ref and ds.d == d_ref
    assert abs(model.L_bar - L_ref) < 1e-3
    assert report(12, f"{key}: (n, d) exact, mean smoothness within 1e-3",
                  ok, f"n={ds.n}, d={ds.d}, L_bar={model.L_bar:.4f} "
                      f"vs {L_ref}")
