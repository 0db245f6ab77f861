"""Independent oracles and statistical checks that verify the library against
brute force at desk scale: finite-difference gradient checks, exhaustive
enumeration of the snapshot-schedule probability law, Monte-Carlo bounds on
the estimator's mean squared error, and the (intractable in production)
gradient-difference-optimal sampling distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .sampling import Rng, snapshot_event_probability

_STREAM_FD = 30
_STREAM_MSE = 31
_MARGIN_SIGMAS = 4.0  # an MSE check passes within this many std errors


# ---------------------------------------------------------------------------
# finite-difference gradient oracle
# ---------------------------------------------------------------------------

@dataclass
class GradientCheckReport:
    trials: int
    tolerance: float
    max_rel_err: float
    worst_trial: int
    worst_component: int
    worst_coordinate: int
    passed: bool


def check_gradient_fd(model, trials: int = 100, tolerance: float = 1e-6,
                      seed: int = 0) -> GradientCheckReport:
    """Central finite differences of f_i on random (x, i) pairs.

    Step h_j = 1e-6 * (1 + |x_j|) per coordinate; the error metric is
    |g_fd - g|_j / max(1, |g_j|) so near-zero coordinates are judged on
    absolute error.
    """
    rng = Rng(seed, stream=_STREAM_FD)
    worst = (0.0, -1, -1, -1)
    for trial in range(trials):
        i = rng.below(model.n)
        x = np.array([2.0 * rng.random() - 1.0 for _ in range(model.d)])
        g = model.component_gradient(i, x)
        for j in range(model.d):
            h = 1e-6 * (1.0 + abs(x[j]))
            xp = x.copy()
            xm = x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (model.component_value(i, xp) - model.component_value(i, xm)) / (2 * h)
            err = float(abs(fd - g[j]) / max(1.0, abs(g[j])))
            if err > worst[0]:
                worst = (err, trial, i, j)
    return GradientCheckReport(
        trials=trials,
        tolerance=tolerance,
        max_rel_err=worst[0],
        worst_trial=worst[1],
        worst_component=worst[2],
        worst_coordinate=worst[3],
        passed=worst[0] < tolerance,
    )


# ---------------------------------------------------------------------------
# exhaustive check of the snapshot-schedule law
# ---------------------------------------------------------------------------

@dataclass
class EnumerationReport:
    m: int
    t: int
    enumerated: np.ndarray   # mass grouped by last-snapshot index t1 = 0..t
    formula: np.ndarray
    max_discrepancy: float
    total_mass: float

    @property
    def passed(self) -> bool:
        return (self.max_discrepancy <= 1e-12
                and abs(self.total_mass - 1.0) <= 1e-12)


def enumerate_snapshot_law(m: int, t_max: int) -> list[EnumerationReport]:
    """Enumerate all 2^t coin sequences for t = 1..t_max and compare the mass
    of {last snapshot at t1} with the closed form (disjointness of the events
    makes the per-t1 masses sum to one)."""
    if t_max > 20:
        raise ConfigError("refusing to enumerate beyond t = 20 (2^t sequences)")
    if m < 1 or t_max < 1:
        raise ConfigError("need m >= 1 and t_max >= 1")
    p1 = 1.0 / m
    reports = []
    for t in range(1, t_max + 1):
        seqs = np.arange(1 << t, dtype=np.int64)
        ones = np.zeros(seqs.size, dtype=np.int64)
        last = np.zeros(seqs.size, dtype=np.int64)
        for k in range(t):
            bit = (seqs >> k) & 1
            ones += bit
            last[bit == 1] = k + 1  # ascending k: final write is the last 1
        mass = p1 ** ones * (1.0 - p1) ** (t - ones)
        grouped = np.bincount(last, weights=mass, minlength=t + 1)
        formula = np.array(
            [snapshot_event_probability(m, t, t1) for t1 in range(t + 1)]
        )
        reports.append(EnumerationReport(
            m=m,
            t=t,
            enumerated=grouped,
            formula=formula,
            max_discrepancy=float(np.abs(grouped - formula).max()),
            total_mass=float(grouped.sum()),
        ))
    return reports


# ---------------------------------------------------------------------------
# Monte-Carlo MSE bounds for the recursive estimator
# ---------------------------------------------------------------------------

@dataclass
class MonteCarloReport:
    quantity: str
    estimate: float
    std_error: float
    bound: float
    margin_sigmas: float
    samples: int
    passed: bool


def estimate_mse_bound(model, regime: str, eta: float, horizon: int,
                       resamples: int = 2000,
                       seed: int = 0) -> list[MonteCarloReport]:
    """Estimate E[||grad F(x_t) - v_t||^2 | snapshot at 0, none since] by
    resampling the index sequence, and compare against the regime's bound.
    The start point x_0 is uniform on [-1, 1]^d, drawn from stream 31 of
    `seed` ahead of the index resamples.

    Conditioned on the schedule event, the remaining randomness is the i.i.d.
    index draws, so forcing the no-snapshot recursion and resampling indices
    samples the conditional law exactly.  The snapshot gap m does not enter:
    it only weights how likely the event is.

    convex bound     eta*L/(2 - eta*L) * ||grad F(x_0)||^2  (needs eta < 2/L)
    nonconvex bound  eta^2 L^2 sum_{tau <= t-1} E[||v_tau||^2 | event],
                     estimated from the same resamples; the pass margin then
                     uses the paired std error of (mse - bound).
    """
    if regime not in ("convex", "nonconvex"):
        raise ConfigError(f"unknown regime {regime!r}")
    if model.n > 50 or model.d > 10:
        raise ConfigError("MSE brute-force check is for n <= 50, d <= 10")
    L = model.L
    if regime == "convex":
        if not eta < 2.0 / L:
            raise ConfigError("convex MSE bound needs eta < 2/L")
        if model.convexity == "nonconvex":
            raise ConfigError("convex regime requires a convex model")
    if eta <= 0:
        raise ConfigError("eta must be > 0")

    rng = Rng(seed, stream=_STREAM_MSE)
    x0 = np.array([2.0 * rng.random() - 1.0 for _ in range(model.d)])

    n, R = model.n, resamples
    v0 = model.full_gradient(x0)
    g0_sq = float(v0 @ v0)
    x1 = x0 - eta * v0

    X_prev = np.tile(x0, (R, 1))
    X_cur = np.tile(x1, (R, 1))
    V = np.tile(v0, (R, 1))
    vsq_hist = [np.full(R, g0_sq)]          # ||v_tau||^2, tau = 0..t-1
    reports = [MonteCarloReport("mse[t=0]", 0.0, 0.0, 0.0, _MARGIN_SIGMAS,
                                R, passed=True)]  # v_0 is the snapshot itself

    coef = eta * L / (2.0 - eta * L)
    for t in range(1, horizon + 1):
        idx = rng.below_block(n, R)
        G1 = model.component_gradient_batch(idx, X_cur)
        G2 = model.component_gradient_batch(idx, X_prev)
        V = (G1 - G2) + V
        full = model.full_gradient_batch(X_cur)
        diff = full - V
        mse = np.einsum("ij,ij->i", diff, diff)
        est = float(mse.mean())
        if regime == "convex":
            bound = coef * g0_sq
            se = float(mse.std(ddof=1) / math.sqrt(R))
        else:
            per_path_bound = (eta * L) ** 2 * np.sum(vsq_hist, axis=0)
            bound = float(per_path_bound.mean())
            paired = mse - per_path_bound
            se = float(paired.std(ddof=1) / math.sqrt(R))
        reports.append(MonteCarloReport(
            quantity=f"mse[t={t}]",
            estimate=est,
            std_error=se,
            bound=bound,
            margin_sigmas=_MARGIN_SIGMAS,
            samples=R,
            passed=est <= bound + _MARGIN_SIGMAS * se,
        ))
        vsq_hist.append(np.einsum("ij,ij->i", V, V))
        X_prev, X_cur = X_cur, X_cur - eta * V
    return reports


# ---------------------------------------------------------------------------
# sampling-distribution oracles
# ---------------------------------------------------------------------------

@dataclass
class SamplingOracleReport:
    degenerate: bool
    variance_optimal: float
    variance_lipschitz: float
    variance_uniform: float
    p_optimal: np.ndarray
    p_lipschitz: np.ndarray
    optimal_beats_uniform: bool
    optimal_beats_lipschitz: bool
    lipschitz_beats_uniform: bool


def _importance_objective(norms_sq: np.ndarray, p: np.ndarray) -> float:
    """(1/n^2) sum_i ||g_i||^2 / p_i with the 0/0 := 0 convention."""
    n = norms_sq.size
    active = norms_sq > 0.0
    if np.any(active & (p <= 0.0)):
        return math.inf
    return float(np.sum(norms_sq[active] / p[active]) / (n * n))


def compare_sampling_oracles(model, x, x_prev) -> SamplingOracleReport:
    """Evaluate the estimator-variance objective under three distributions:
    the exact optimum p_i ~ ||grad f_i(x) - grad f_i(x_prev)|| (intractable
    in production: it needs every component gradient), the smoothness-based
    p_i ~ L_i, and uniform.  The optimum minimizes the objective over the
    simplex, so it never loses; the L_i-vs-uniform ordering is reported as
    observed."""
    if model.n > 100:
        raise ConfigError("exact sampling oracle is for n <= 100")
    n = model.n
    idx = np.arange(n)
    G1 = model.component_gradient_batch(idx, np.tile(np.asarray(x, float), (n, 1)))
    G2 = model.component_gradient_batch(idx, np.tile(np.asarray(x_prev, float), (n, 1)))
    diffs = G1 - G2
    norms_sq = np.einsum("ij,ij->i", diffs, diffs)
    norms = np.sqrt(norms_sq)
    total = norms.sum()
    p_uni = np.full(n, 1.0 / n)
    p_lip = model.lipschitz / model.lipschitz.sum()
    if total == 0.0:
        return SamplingOracleReport(
            degenerate=True,
            variance_optimal=0.0, variance_lipschitz=0.0, variance_uniform=0.0,
            p_optimal=p_uni.copy(), p_lipschitz=p_lip,
            optimal_beats_uniform=True, optimal_beats_lipschitz=True,
            lipschitz_beats_uniform=True,
        )
    p_star = norms / total
    v_star = _importance_objective(norms_sq, p_star)
    v_lip = _importance_objective(norms_sq, p_lip)
    v_uni = _importance_objective(norms_sq, p_uni)
    tol = 1e-12 * max(1.0, v_uni)
    return SamplingOracleReport(
        degenerate=False,
        variance_optimal=v_star,
        variance_lipschitz=v_lip,
        variance_uniform=v_uni,
        p_optimal=p_star,
        p_lipschitz=p_lip,
        optimal_beats_uniform=v_star <= v_uni + tol,
        optimal_beats_lipschitz=v_star <= v_lip + tol,
        lipschitz_beats_uniform=v_lip <= v_uni + tol,
    )


# ---------------------------------------------------------------------------
# goodness-of-fit helper for the geometric gap law
# ---------------------------------------------------------------------------

@dataclass
class ChiSquareReport:
    statistic: float
    critical: float
    dof: int
    alpha: float
    passed: bool


def geometric_gap_chisquare(gaps: np.ndarray, m: int,
                            alpha: float = 0.01) -> ChiSquareReport:
    """Chi-square acceptance test of inter-snapshot gaps against
    Geometric(1/m) on {1, 2, ...} (mean m), collapsing the tail so every bin
    keeps expected count >= 5."""
    gaps = np.asarray(gaps, dtype=np.int64)
    if gaps.size < 100:
        raise ConfigError("need at least 100 gaps")
    N = gaps.size
    p = 1.0 / m
    # choose tail cut K: P(gap >= K) small but N * pmf(K) still >= 5
    K = 1
    while N * p * (1 - p) ** K >= 5.0 and K < 10000:
        K += 1
    counts = np.bincount(np.minimum(gaps, K), minlength=K + 1)[1:]
    probs = np.array([p * (1 - p) ** (k - 1) for k in range(1, K)])
    probs = np.append(probs, (1 - p) ** (K - 1))  # tail mass >= K
    expected = N * probs
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = K - 1
    # imported here: scipy.stats costs every `vropt run` about 40 MB and 0.7 s
    from scipy.stats import chi2
    crit = float(chi2.ppf(1.0 - alpha, dof))
    return ChiSquareReport(statistic=stat, critical=crit, dof=dof,
                           alpha=alpha, passed=stat <= crit)
