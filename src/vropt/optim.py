"""Optimizer runs behind one contract, with exact IFO accounting.

Algorithms
----------
GD        x_{t+1} = x_t - eta * grad F(x_t)
SGD       x_{t+1} = x_t - eta_k * grad f_i(x_t), eta_k fixed per effective pass
SVRG      anchored estimator v_t = grad f_i(x_t) - grad f_i(x~) + grad F(x~)
SARAH     recursive estimator v_t = grad f_i(x_t) - grad f_i(x_{t-1}) + v_{t-1},
          outer restart drawn uniformly from the inner iterates {x_0..x_m}
SARAH-LI  SARAH with the deterministic last-iterate restart x~ = x_m
L2S       loopless SARAH: one run of T steps, each step computes a full
          (snapshot) gradient with probability 1/m, else the recursion;
          output drawn uniformly from {x_1..x_T}
L2S-SC    strongly convex variant: on a snapshot event the iterate first
          steps back one update; runs until S snapshot events, outputs x_T
D2S       SARAH with component draws from p_i = L_i / sum L_j and the
          increment importance-weighted by 1/(n p_i)

IFO accounting is exact: a component gradient costs 1, a snapshot costs n,
and the initial anchor gradient costs n.  Objective evaluations are free.

Every run is bit-reproducible from (config, seed): index draws, snapshot
coin flips and output draws consume three separate substreams, so changing
m never perturbs the i_t sequence.

Inner steps
-----------
SARAH, SARAH-LI, D2S, L2S and L2S-SC keep the recursion in an estimator
state object (snapshot / step / materialise).  The dense state works on
explicit iterates.  On sparse L2-regularized data (see ``inner_step``),
the lazy state holds v = alpha u and x = y - eta B u and steps in O(nnz) of
the sampled row.  It builds full vectors only at snapshots, trace records,
restart points, the output and, with ``record_iterates``, every step.
Draws, IFO counts and snapshot events are the same on both paths, and the
iterates agree to rounding.  ``RunResult.inner_step`` records the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DescentViolation, DivergenceError
from .model import IfoCounter
from .sampling import (
    ImportanceTable,
    build_importance_table,
    draw_snapshot_flag,
    draw_uniform_index,
    split_run_streams,
)

ALGORITHMS = ("GD", "SGD", "SVRG", "SARAH", "SARAH-LI", "L2S", "L2S-SC", "D2S")
_NEEDS_T = {"GD", "SGD", "L2S"}
_NEEDS_S = {"SVRG", "SARAH", "SARAH-LI", "L2S-SC", "D2S"}
_OUTPUT_RULES = {
    "GD": "last-iterate",
    "SGD": "last-iterate",
    "SVRG": "last-iterate",
    "SARAH": "uniform-random-iterate",
    "SARAH-LI": "last-iterate",
    "L2S": "uniform-random-iterate",
    "L2S-SC": "last-iterate",
    "D2S": "uniform-random-iterate",
}

_DIVERGE_SQ = 1e24  # ||x||^2 guard, i.e. ||x|| > 1e12
_DESCENT_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class OptimizerConfig:
    algorithm: str
    eta: float
    m: int = 1
    T: int | None = None
    S: int | None = None
    seed: int = 0
    output_rule: str = "auto"
    step_back: bool = True                      # L2S-SC rollback at snapshots
    eta_schedule: Optional[Callable[[int], float]] = None  # pass index -> eta
    x0: np.ndarray | None = None                # default: origin
    record_every_pass: float | None = 1.0       # trace cadence; None = no trace
    record_iterates: bool = False
    max_ifo: int | None = None                  # hard budget, stops mid-run
    stop_grad_sq: float | None = None           # stop once a snapshot gradient
                                                # has squared norm <= this

    def resolved_output_rule(self) -> str:
        return _OUTPUT_RULES[self.algorithm] if self.output_rule == "auto" \
            else self.output_rule


def validate_config(config: OptimizerConfig) -> None:
    algo = config.algorithm
    if algo not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algo!r}")
    if not (config.eta > 0 and math.isfinite(config.eta)):
        raise ConfigError("eta must be positive and finite")
    if config.T is not None and config.S is not None:
        raise ConfigError("set exactly one of T and S")
    if algo in _NEEDS_T:
        if config.T is None:
            raise ConfigError(f"{algo} requires T")
        if config.T < 0 or (algo == "L2S" and config.T < 1):
            raise ConfigError(f"invalid T={config.T} for {algo}")
    else:
        if config.S is None:
            raise ConfigError(f"{algo} requires S")
        if config.S < 1:
            raise ConfigError(f"{algo} requires S >= 1")
    if config.m < 0:
        raise ConfigError("m must be >= 0")
    if algo in ("L2S", "L2S-SC") and config.m < 1:
        raise ConfigError(f"{algo} requires m >= 1")
    if algo == "SVRG" and config.m < 1:
        raise ConfigError("SVRG requires m >= 1")
    rule = config.output_rule
    if rule != "auto" and rule != _OUTPUT_RULES[algo]:
        raise ConfigError(f"{algo} uses output rule {_OUTPUT_RULES[algo]!r}")
    if config.max_ifo is not None and config.max_ifo < 0:
        raise ConfigError("max_ifo must be >= 0")


@dataclass
class Trace:
    passes: np.ndarray
    ifo: np.ndarray
    objective: np.ndarray
    grad_sq: np.ndarray

    def __len__(self):
        return self.passes.size


@dataclass
class RunResult:
    config: OptimizerConfig
    x_out: np.ndarray
    f0: float
    f1: float
    total_ifo: int
    total_iterations: int
    snapshot_iters: np.ndarray           # iteration index of each full gradient
    trace: Trace
    bernoulli: np.ndarray | None = None  # realized B_t, t = 1..T (L2S family)
    indices: np.ndarray | None = None    # realized i_t (when iterates recorded)
    iterates: np.ndarray | None = None   # (T+1, d) when recorded
    snapshot_grads: list = field(default_factory=list)  # v at snapshots (when recorded)
    snapshot_points: list = field(default_factory=list)  # x at snapshots (when recorded)
    restart_points: list = field(default_factory=list)  # x~ per outer loop
    stopped_early: bool = False
    reached_grad_target: bool = False
    inner_step: str = "dense"            # "sparse": lazy O(nnz) recursion

    @property
    def snapshot_count(self) -> int:
        return int(self.snapshot_iters.size)


def ifo_count(result: RunResult) -> int:
    """Total incremental-first-order-oracle calls of a completed run."""
    return result.total_ifo


class _Run:
    """Shared run state: counter, streams, trace recorder, guards."""

    def __init__(self, model, config):
        validate_config(config)
        self.model = model
        self.config = config
        self.counter = IfoCounter()
        self.streams = split_run_streams(config.seed)
        if config.x0 is None:
            self.x0 = np.zeros(model.d)
        else:
            self.x0 = np.array(config.x0, dtype=np.float64, copy=True)
            if self.x0.shape != (model.d,):
                raise ConfigError("x0 has wrong dimension")
        cadence = config.record_every_pass
        if cadence is not None:
            step = int(round(cadence * model.n))
            if step < 1:
                raise ConfigError("record cadence below one IFO call")
            self._rec_step = step
        else:
            self._rec_step = None
        self._next_thresh = 0
        self._rows = []
        self.snapshot_iters = []
        self.snapshot_grads = []
        self.snapshot_points = []
        self.restart_points = []
        self.iterates = [] if config.record_iterates else None
        self.indices = [] if config.record_iterates else None
        self.stopped = False
        self.hit_target = False
        self._last_t = 0
        self.f0 = model.objective(self.x0)
        self.f1 = math.nan

    # -- recording --------------------------------------------------------
    def record(self, x):
        if self._rec_step is None:
            return
        while self.counter.count >= self._next_thresh:
            g = self.model.full_gradient(x)
            f = self.model.objective(x)
            if not math.isfinite(f) or abs(f) > 1e12:
                raise DivergenceError("objective exploded", self._last_t)
            self._rows.append(
                (self.counter.count / self.model.n, self.counter.count,
                 f, float(g @ g))
            )
            self._next_thresh += self._rec_step

    def note_snapshot(self, t, v, x):
        self.snapshot_iters.append(t)
        if self.config.record_iterates:
            self.snapshot_grads.append(v.copy())
            self.snapshot_points.append(x.copy())
        if (self.config.stop_grad_sq is not None
                and float(v @ v) <= self.config.stop_grad_sq):
            self.hit_target = True
            self.stopped = True

    def note_iterate(self, x):
        if self.iterates is not None:
            self.iterates.append(x.copy())

    def guard(self, x, t):
        self.guard_sq(float(x @ x), t)

    def guard_sq(self, nx, t):
        self._last_t = t
        if not math.isfinite(nx) or nx > _DIVERGE_SQ:
            raise DivergenceError("iterate norm exploded", t)

    def recursion(self):
        """The recursive estimator's state for this run's model."""
        sparse = inner_step(self.model, self.config.algorithm) == "sparse"
        cls = _LazyRecursion if sparse else _DenseRecursion
        return cls(self.model, self.config.eta, self.counter)

    def advance(self, est, t, first_step_cap=None):
        """Per-step bookkeeping of the recursive loops: guard, iterate log,
        first-step descent check and trace record, in that order.  The
        iterate is materialised only for what reads it."""
        self.guard_sq(est.sq_norm(), t)
        if self.iterates is not None:
            self.iterates.append(est.materialise().copy())
        if first_step_cap is not None:
            self.check_first_step(est.materialise(), self.config.eta,
                                  first_step_cap)
        rec = self._rec_step is not None
        if rec and self.counter.count >= self._next_thresh:
            self.record(est.materialise())

    def over_budget(self) -> bool:
        cap = self.config.max_ifo
        if cap is not None and self.counter.count >= cap:
            self.stopped = True
        return self.stopped

    def check_first_step(self, x1, eta0, smoothness_cap):
        """F(x_1) <= F(x_0) must hold whenever the first update used the full
        gradient and eta < 1/L (1/L_bar for D2S)."""
        self.f1 = self.model.objective(x1)
        if eta0 < 1.0 / smoothness_cap:
            tol = _DESCENT_RTOL * max(1.0, abs(self.f0))
            if self.f1 > self.f0 + tol:
                raise DescentViolation(
                    f"F(x1)={self.f1!r} > F(x0)={self.f0!r} at eta={eta0!r}"
                )

    def finish(self, x_out, total_iterations, bernoulli=None,
               inner_step="dense") -> RunResult:
        rows = self._rows
        trace = Trace(
            passes=np.array([r[0] for r in rows]),
            ifo=np.array([r[1] for r in rows], dtype=np.int64),
            objective=np.array([r[2] for r in rows]),
            grad_sq=np.array([r[3] for r in rows]),
        )
        return RunResult(
            config=self.config,
            x_out=x_out,
            f0=self.f0,
            f1=self.f1,
            total_ifo=self.counter.count,
            total_iterations=total_iterations,
            snapshot_iters=np.array(self.snapshot_iters, dtype=np.int64),
            trace=trace,
            bernoulli=bernoulli,
            indices=(np.array(self.indices, dtype=np.int64)
                     if self.indices is not None else None),
            iterates=(np.array(self.iterates)
                      if self.iterates is not None else None),
            snapshot_grads=self.snapshot_grads,
            snapshot_points=self.snapshot_points,
            restart_points=self.restart_points,
            stopped_early=self.stopped,
            reached_grad_target=self.hit_target,
            inner_step=inner_step,
        )


# --------------------------------------------------------------------------
# Recursive estimator state: v_t = grad f_i(x_t) - grad f_i(x_{t-1}) + v_{t-1}
# (increment divided by w_i = n p_i for D2S), x_{t+1} = x_t - eta v_t.
# --------------------------------------------------------------------------

_LAZY_ALGORITHMS = ("SARAH", "SARAH-LI", "D2S", "L2S", "L2S-SC")
_SPARSE_MIN_D = 512
_SPARSE_MAX_FILL = 0.25        # mean row nnz / d
# x = y - eta B u cancels terms of size eta |B| |v| / |alpha|; the state is
# renormalised (an O(d) fold) once |B| exceeds this multiple of |alpha|
_REBASE_RATIO = 1e4


def inner_step(model, algorithm: str) -> str:
    """"sparse" when ``algorithm`` runs its inner steps lazily in O(nnz) on
    ``model``, else "dense".

    Only the recursive estimators have a lazy form, and it needs an L2
    regularizer (``model.ridge``), which makes the recursion affine off the
    sampled row.  Below d = 512, or with rows filling over a quarter of d,
    the measured gain is small (README, "Sparse inner steps"), so such
    models keep the dense path, which is the bit-exact reference.
    Read through plain attribute access, so a delegating proxy gets the
    same answer.
    """
    d = model.d
    sparse = (algorithm in _LAZY_ALGORITHMS and model.ridge is not None
              and d >= _SPARSE_MIN_D
              and model.mean_row_nnz <= _SPARSE_MAX_FILL * d)
    return "sparse" if sparse else "dense"


class _DenseRecursion:
    """The recursion on explicit iterates (the reference arithmetic)."""

    kind = "dense"

    def __init__(self, model, eta, counter):
        self.model, self.eta, self.counter = model, eta, counter

    def snapshot(self, x, v):
        """Restart at x with v = grad F(x), then take the step x - eta v."""
        self.v, self.prev = v, x
        self.cur = x - self.eta * v

    def step(self, i, weight=None):
        cg = self.model.component_gradient
        diff = cg(i, self.cur, self.counter) - cg(i, self.prev, self.counter)
        self.v = diff + self.v if weight is None else diff / weight + self.v
        self.prev, self.cur = self.cur, self.cur - self.eta * self.v

    def materialise(self, prev=False):
        return self.prev if prev else self.cur

    def sq_norm(self):
        return float(self.cur @ self.cur)


class _LazyPoint:
    """x_t (or x_{t-1}) of a _LazyRecursion, gathered on a row's support."""

    __slots__ = ("state", "prev")

    def __init__(self, state, prev):
        self.state, self.prev = state, prev

    def gather(self, idx):
        st = self.state
        B = st.B - st.alpha if self.prev else st.B
        return st.y[idx] - (st.eta * B) * st.u[idx]


class _LazyRecursion:
    """The recursion held lazily for an L2-regularized margin loss, in O(nnz)
    per step.

    With grad f_i(x) = c_i(x) a_i + lam x and x_t - x_{t-1} = -eta v_{t-1},
    a step is v_t = rho v_{t-1} + s a_i with rho = 1 - lam eta / w_i and
    s = (c_i(x_t) - c_i(x_{t-1})) / w_i: affine off row i's support S.  The
    state is v = alpha u and x_t = y - eta B u with scalars alpha and B, and
    x_{t-1} = y - eta (B - alpha) u.  A step is alpha <- rho alpha,
    u[S] += (s / alpha) a_i[S], y[S] += eta B du[S], B <- B + alpha.  The
    running sums y.y, y.u and u.u give ||x_t||^2 for the divergence guard.
    Full vectors are built only by ``materialise``.
    """

    kind = "sparse"

    def __init__(self, model, eta, counter):
        self.model, self.eta, self.counter = model, eta, counter
        self.lam_eta = model.ridge * eta
        self.cur, self.prev = _LazyPoint(self, False), _LazyPoint(self, True)

    def snapshot(self, x, v):
        """Restart at x with v = grad F(x), then take the step x - eta v."""
        self.y = np.array(x, dtype=np.float64)
        self.u = np.array(v, dtype=np.float64)
        self.alpha = self.B = 1.0
        self._resum()

    def _resum(self):
        # einsum, not BLAS: at d ~ 5e4 a threaded BLAS dot waited 6-8 ms
        # for its worker thread on a busy 2-vCPU machine; einsum takes 20 us
        y, u = self.y, self.u
        self.yy, self.yu, self.uu = (float(np.einsum("i,i->", a, b))
                                     for a, b in ((y, y), (y, u), (u, u)))

    def step(self, i, weight=None):
        cg = self.model.component_gradient
        c1, idx, val = cg(i, self.cur, self.counter)
        c0 = cg(i, self.prev, self.counter)[0]
        if weight is None:
            rho, s = 1.0 - self.lam_eta, c1 - c0
        else:
            rho, s = 1.0 - self.lam_eta / weight, (c1 - c0) / weight
        alpha = self.alpha * rho
        if abs(self.B) > _REBASE_RATIO * abs(alpha):
            # fold alpha into u and eta B u into y, so that v = u and x_t = y
            self.y -= (self.eta * self.B) * self.u
            self.u *= alpha
            self.B, alpha = 0.0, 1.0
            self._resum()
        u, y, eB = self.u, self.y, self.eta * self.B
        du = (s / alpha) * val
        uS, yS = u[idx], y[idx]
        u[idx] = uS + du
        y[idx] = yS + eB * du
        p, q, r = float(du @ du), float(du @ uS), float(du @ yS)
        self.uu += 2.0 * q + p
        self.yu += r + eB * (q + p)
        self.yy += eB * (2.0 * r + eB * p)
        self.alpha = alpha
        self.B += alpha

    def materialise(self, prev=False):
        B = self.B - self.alpha if prev else self.B
        return self.y - (self.eta * B) * self.u

    def sq_norm(self):
        eB = self.eta * self.B
        return self.yy - eB * (2.0 * self.yu - eB * self.uu)


def run_gd(model, config: OptimizerConfig) -> RunResult:
    """Full-gradient descent; IFO = n * (number of steps taken)."""
    st = _Run(model, config)
    eta, sched = config.eta, config.eta_schedule
    x = st.x0
    st.note_iterate(x)
    st.record(x)
    t = 0
    for t in range(config.T):
        eta_t = sched(t) if sched is not None else eta
        g = model.full_gradient(x, st.counter)
        st.note_snapshot(t, g, x)
        x = x - eta_t * g
        st.guard(x, t)
        st.note_iterate(x)
        if t == 0:
            st.check_first_step(x, eta_t, model.L)
        st.record(x)
        if st.over_budget():
            break
    return st.finish(x, t + 1 if config.T else 0)


def run_sgd(model, config: OptimizerConfig) -> RunResult:
    """Uniform single-component steps with the per-pass schedule
    eta_k = eta / (k + 1) (set eta = 1/L for the classical baseline);
    an explicit eta_schedule overrides it.  IFO = T."""
    st = _Run(model, config)
    sched = config.eta_schedule or (lambda k: config.eta / (k + 1))
    rng = st.streams["index"]
    n = model.n
    x = st.x0
    st.note_iterate(x)
    st.record(x)
    t = 0
    for t in range(config.T):
        eta_t = sched(st.counter.count // n)
        i = draw_uniform_index(rng, n)
        if st.indices is not None:
            st.indices.append(i)
        g = model.component_gradient(i, x, st.counter)
        x = x - eta_t * g
        st.guard(x, t)
        st.note_iterate(x)
        if t == 0:
            st.f1 = model.objective(x)  # informational; no descent guarantee
        st.record(x)
        if st.over_budget():
            break
    return st.finish(x, t + 1 if config.T else 0)


def run_svrg(model, config: OptimizerConfig) -> RunResult:
    """SVRG with inner length m and last-inner-iterate restart.
    IFO = S * (n + 2m)."""
    st = _Run(model, config)
    eta, m, n = config.eta, config.m, model.n
    rng = st.streams["index"]
    x_tilde = st.x0
    st.note_iterate(x_tilde)
    st.record(x_tilde)
    x = x_tilde
    t_global = 0
    for s in range(config.S):
        mu_tilde = model.full_gradient(x_tilde, st.counter)
        st.note_snapshot(t_global, mu_tilde, x_tilde)
        st.restart_points.append(x_tilde)
        if st.stopped:
            break
        x = x_tilde
        for _ in range(m):
            i = draw_uniform_index(rng, n)
            if st.indices is not None:
                st.indices.append(i)
            v = (model.component_gradient(i, x, st.counter)
                 - model.component_gradient(i, x_tilde, st.counter)) + mu_tilde
            x = x - eta * v
            t_global += 1
            st.guard(x, t_global)
            st.note_iterate(x)
            if s == 0 and t_global == 1:
                st.check_first_step(x, eta, model.L)
            st.record(x)
            if st.over_budget():
                break
        x_tilde = x
        if st.stopped:
            break
    return st.finish(x_tilde, t_global)


def _run_sarah_family(model, config, *, last_iterate: bool,
                      table: ImportanceTable | None) -> RunResult:
    """SARAH / SARAH-LI / D2S share one loop; they differ only in the restart
    rule and in how i_t is drawn and the increment weighted."""
    st = _Run(model, config)
    m, n = config.m, model.n
    idx_rng = st.streams["index"]
    out_rng = st.streams["output"]
    weights = table.weights if table is not None else None
    first_cap = model.L_bar if table is not None else model.L
    est = st.recursion()
    x_tilde = st.x0
    st.note_iterate(x_tilde)
    st.record(x_tilde)
    t_global = 0
    for s in range(config.S):
        v = model.full_gradient(x_tilde, st.counter)
        st.note_snapshot(t_global, v, x_tilde)
        st.restart_points.append(x_tilde)
        if st.stopped:
            break
        if last_iterate:
            a = m  # deterministic restart index
        else:
            a = draw_uniform_index(out_rng, m + 1)
        keep = x_tilde if a == 0 else None
        est.snapshot(x_tilde, v)
        t_global += 1
        st.advance(est, t_global, first_step_cap=None if s else first_cap)
        if a == 1:
            keep = est.materialise()
        aborted = st.over_budget()
        if not aborted:
            for t in range(1, m + 1):
                i = (table.draw(idx_rng) if table is not None
                     else draw_uniform_index(idx_rng, n))
                if st.indices is not None:
                    st.indices.append(i)
                est.step(i, weights[i] if weights is not None else None)
                t_global += 1
                st.advance(est, t_global)
                if t + 1 == a:
                    keep = est.materialise()
                if st.over_budget():
                    aborted = True
                    break
        if m == 0 or aborted:
            # m == 0: the only progress is the anchored step, restart from
            # it (a pure full-gradient outer loop)
            x_tilde = est.materialise()
        else:
            x_tilde = keep if keep is not None else est.materialise(prev=True)
        if st.stopped:
            break
    return st.finish(x_tilde, t_global, inner_step=est.kind)


def run_sarah(model, config: OptimizerConfig) -> RunResult:
    """SARAH with uniform-random-iterate restart over {x_0 .. x_m}.
    IFO = S * (n + 2m)."""
    return _run_sarah_family(model, config, last_iterate=False, table=None)


def run_sarah_li(model, config: OptimizerConfig) -> RunResult:
    """SARAH restarting deterministically from the m-th inner iterate."""
    return _run_sarah_family(model, config, last_iterate=True, table=None)


def run_d2s(model, config: OptimizerConfig) -> RunResult:
    """SARAH with static importance sampling p_i = L_i / sum L_j and the
    increment scaled by 1/(n p_i).  IFO = S * (n + 2m)."""
    table = build_importance_table(model.lipschitz)
    return _run_sarah_family(model, config, last_iterate=False, table=table)


def run_l2s(model, config: OptimizerConfig) -> RunResult:
    """Loopless SARAH: per-iteration Bernoulli(1/m) snapshot decision.
    IFO = n + sum_t (n if B_t else 2)."""
    st = _Run(model, config)
    m, n, T = config.m, model.n, config.T
    idx_rng = st.streams["index"]
    snap_rng = st.streams["snapshot"]
    out_rng = st.streams["output"]
    bern = np.zeros(T, dtype=np.uint8)
    est = st.recursion()

    x = st.x0
    st.note_iterate(x)
    st.record(x)
    v = model.full_gradient(x, st.counter)
    st.note_snapshot(0, v, x)
    a = 1 + draw_uniform_index(out_rng, T)  # output index in {1..T}
    est.snapshot(x, v)
    st.advance(est, 1, first_step_cap=model.L)
    keep = est.materialise() if a == 1 else None
    t = 0
    updates = 1  # the anchored step above
    if not st.over_budget():
        for t in range(1, T + 1):
            if draw_snapshot_flag(snap_rng, m):
                bern[t - 1] = 1
                x = est.materialise()
                v = model.full_gradient(x, st.counter)
                st.note_snapshot(t, v, x)
                if st.hit_target:
                    break  # x is the certified point
                est.snapshot(x, v)
            else:
                i = draw_uniform_index(idx_rng, n)
                if st.indices is not None:
                    st.indices.append(i)
                est.step(i)
            updates += 1
            st.advance(est, t + 1)
            if t + 1 == a:
                keep = est.materialise()
            if st.over_budget():
                break
    x_out = est.materialise() if keep is None or st.stopped else keep
    return st.finish(x_out, updates, bernoulli=bern[:t], inner_step=est.kind)


def run_l2s_sc(model, config: OptimizerConfig) -> RunResult:
    """L2S for strongly convex problems: steps back one update whenever a
    snapshot gradient is drawn, runs until S snapshot events, outputs the
    final iterate.  The total iteration count is random and is recorded."""
    st = _Run(model, config)
    m, n, S = config.m, model.n, config.S
    idx_rng = st.streams["index"]
    snap_rng = st.streams["snapshot"]
    bern = []
    est = st.recursion()

    x = st.x0
    st.note_iterate(x)
    st.record(x)
    v = model.full_gradient(x, st.counter)
    st.note_snapshot(0, v, x)
    est.snapshot(x, v)
    st.advance(est, 1, first_step_cap=model.L)
    x_out = None  # set when a snapshot certifies its point
    t = 1
    s = 0
    while s != S and not st.over_budget():
        if draw_snapshot_flag(snap_rng, m):
            bern.append(1)
            # Line "x_t = x_{t-1}": the iterate is reassigned, so the
            # recorded sequence reflects the stepped-back value
            x = est.materialise(prev=config.step_back)
            if config.step_back and st.iterates is not None:
                st.iterates[-1] = x.copy()
            v = model.full_gradient(x, st.counter)
            st.note_snapshot(t, v, x)
            s += 1
            if st.hit_target:
                x_out = x
                break  # x is the certified point
            est.snapshot(x, v)
        else:
            bern.append(0)
            i = draw_uniform_index(idx_rng, n)
            if st.indices is not None:
                st.indices.append(i)
            est.step(i)
        t += 1
        st.advance(est, t)
    if x_out is None:
        x_out = est.materialise()
    return st.finish(x_out, t, bernoulli=np.array(bern, dtype=np.uint8),
                     inner_step=est.kind)


_RUNNERS = {
    "GD": run_gd,
    "SGD": run_sgd,
    "SVRG": run_svrg,
    "SARAH": run_sarah,
    "SARAH-LI": run_sarah_li,
    "L2S": run_l2s,
    "L2S-SC": run_l2s_sc,
    "D2S": run_d2s,
}


def run(model, config: OptimizerConfig) -> RunResult:
    validate_config(config)
    return _RUNNERS[config.algorithm](model, config)


# --------------------------------------------------------------------------
# Step-size planning: certified step sizes and convergence certificates.
# --------------------------------------------------------------------------

REGIMES = ("strongly-convex", "convex-n-independent", "convex-n-dependent",
           "nonconvex")


@dataclass(frozen=True)
class PlannedStep:
    eta: float
    certificate: dict
    valid: bool


def c_eta(eta: float, L: float) -> float:
    """Convex-regime margin 1 - eta*L / (2 - eta*L); positive iff eta < 1/L."""
    return 1.0 - eta * L / (2.0 - eta * L)


def eta_max_nonconvex(m: int, L: float) -> float:
    """Largest step size with m*eta^2*L^2 + eta*L - 1 <= 0:
    (sqrt(4m+1) - 1) / (2mL)."""
    if m < 1:
        raise ConfigError("m must be >= 1")
    return (math.sqrt(4.0 * m + 1.0) - 1.0) / (2.0 * m * L)


def theta_strongly_convex(eta: float, L: float, mu: float,
                          per_component: bool = True) -> float:
    """Per-inner-step contraction factor of the estimator norm.

    per_component=True assumes every f_i is mu-strongly convex:
        theta = 1 - 2*eta*L / (1 + kappa).
    Otherwise only F is strongly convex:
        theta = 1 - (2/(eta*L) - 1) * mu^2 * eta^2.
    """
    if mu <= 0:
        raise ConfigError("strongly convex certificates require mu > 0")
    if per_component:
        kappa = L / mu
        return 1.0 - 2.0 * eta * L / (1.0 + kappa)
    return 1.0 - (2.0 / (eta * L) - 1.0) * mu * mu * eta * eta


def lambda_last_iterate(eta: float, L: float, theta: float, m: int) -> float:
    """Per-outer-loop decay certificate of last-iterate SARAH:
    2*eta*L/(2 - eta*L) + (2 + 2*eta*L) * theta^m."""
    return 2.0 * eta * L / (2.0 - eta * L) + (2.0 + 2.0 * eta * L) * theta ** m


def lambda_loopless_sc(eta: float, L: float, theta: float, m: int) -> float:
    """Per-snapshot-epoch decay certificate of the step-back loopless variant:
    2*eta*L/(2 - eta*L)
      + (2 + 2*eta*L)/(m-1) * theta*(1 - 1/m) / (1 - theta*(1 - 1/m))."""
    if m < 2:
        raise ConfigError("the epoch certificate requires m >= 2")
    tq = theta * (1.0 - 1.0 / m)
    if tq >= 1.0:
        return math.inf
    return (2.0 * eta * L / (2.0 - eta * L)
            + (2.0 + 2.0 * eta * L) / (m - 1.0) * tq / (1.0 - tq))


def sigma_geometric(eta: float, L_eff: float, mu: float, m: int) -> float:
    """Uniform-restart decay certificate 1/(mu*eta*(m+1)) + eta*L/(2 - eta*L);
    pass L_eff = L for uniform sampling, L_eff = L_bar for importance
    sampling."""
    if mu <= 0:
        raise ConfigError("sigma certificate requires mu > 0")
    return 1.0 / (mu * eta * (m + 1)) + eta * L_eff / (2.0 - eta * L_eff)


def plan_step_size(model, algorithm: str, regime: str, m: int) -> PlannedStep:
    """Concrete certified step size plus the certificate backing it.

    strongly-convex        eta = 0.5/L (0.5/L_bar for D2S); certificate is the
                           per-epoch decay factor, valid iff < 1
    convex-n-independent   eta = 0.5/L, certificate C_eta = 2/3
    convex-n-dependent     eta at the nonconvex maximum ~ 1/(L sqrt(m))
    nonconvex              same eta; certificate is the quadratic slack
                           1 - eta*L - m*(eta*L)^2 >= 0
    """
    if regime not in REGIMES:
        raise ConfigError(f"unknown regime {regime!r}")
    L, L_bar, mu = model.L, model.L_bar, model.mu

    if regime == "strongly-convex":
        if mu <= 0:
            raise ConfigError("strongly-convex plan requires mu > 0")
        if algorithm == "D2S":
            eta = 0.5 / L_bar
            sig = sigma_geometric(eta, L_bar, mu, m)
            return PlannedStep(eta, {"sigma_m": sig, "kappa_bar": L_bar / mu},
                               valid=sig < 1.0)
        eta = 0.5 / L
        theta = theta_strongly_convex(eta, L, mu, per_component=True)
        if algorithm == "SARAH":
            sig = sigma_geometric(eta, L, mu, m)
            return PlannedStep(eta, {"sigma_m": sig, "theta": theta},
                               valid=sig < 1.0)
        if algorithm == "SARAH-LI":
            lam = lambda_last_iterate(eta, L, theta, m)
            return PlannedStep(eta, {"lambda_m": lam, "theta": theta},
                               valid=lam < 1.0)
        if algorithm == "L2S-SC":
            lam = lambda_loopless_sc(eta, L, theta, m)
            return PlannedStep(eta, {"lambda": lam, "theta": theta},
                               valid=lam < 1.0)
        raise ConfigError(f"no strongly-convex certificate for {algorithm}")

    if algorithm != "L2S":
        raise ConfigError(f"regime {regime!r} certifies L2S only")
    if regime == "convex-n-independent":
        eta = 0.5 / L
        ce = c_eta(eta, L)
        return PlannedStep(eta, {"C_eta": ce}, valid=ce > 0.0)
    if regime == "convex-n-dependent":
        eta = eta_max_nonconvex(m, L)
        ce = c_eta(eta, L)
        return PlannedStep(eta, {"C_eta": ce}, valid=ce > 0.0)
    # nonconvex
    eta = eta_max_nonconvex(m, L)
    slack = 1.0 - eta * L - m * (eta * L) ** 2
    return PlannedStep(eta, {"eta_max": eta, "quadratic_slack": slack},
                       valid=slack >= -1e-12)
