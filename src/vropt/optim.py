"""Optimizer runs from one loop, with exact IFO accounting.

The algorithms share one loop (``run``) and differ in four parts, chosen
from ``config.algorithm`` before the loop starts:

algorithm  estimator  snapshot rule   horizon           restart / output
GD         recursive  every step      T updates         current iterate
SGD        plain      never           T updates         current iterate
SVRG       anchored   every m steps   S outer loops     current iterate
SARAH      recursive  every m steps   S outer loops     x_a, a ~ U{0..m}
SARAH-LI   recursive  every m steps   S outer loops     x_m
D2S        weighted   every m steps   S outer loops     x_a, a ~ U{0..m}
L2S        recursive  Bernoulli(1/m)  T + 1 updates     x_a, a ~ U{1..T}
L2S-SC     recursive  Bernoulli(1/m)  S snapshot draws  one step back

Each pass takes a snapshot or an inner step.  A snapshot computes grad F
at the restart point (x_0 first); the recursive estimators then step to
x - eta grad F, the anchored one only sets its anchor.  Estimators: plain
v = grad f_i(x); anchored v = grad f_i(x) - grad f_i(x~) + grad F(x~);
recursive v_t = grad f_i(x_t) - grad f_i(x_{t-1}) + v_{t-1}; weighted
divides that increment by n p_i, with i ~ p_i = L_i / sum L_j.  SGD steps
with eta / (k + 1) in effective pass k; GD and SGD take an
``eta_schedule``.  x_a is the a-th iterate of the outer loop (with m = 0,
its one step) or, for L2S, of the run.  L2S-SC restarts from the iterate
before the last update and stops one update after its S-th drawn
snapshot.  A run also stops once ``max_ifo`` is spent (output: the current
iterate) or a snapshot gradient has squared norm <= ``stop_grad_sq``
(output: that snapshot's point).

IFO accounting is exact: a component gradient costs 1, a snapshot costs n,
and the initial anchor gradient costs n.  Objective evaluations are free.
SARAH, SARAH-LI and D2S take m recursive steps after each snapshot's step,
so every outer loop computes an x_{m+1} that no restart (a in {0..m}) can
select.  That step costs 2 IFO, which is why an outer loop costs n + 2m
and criterion 6 asserts S(n + 2m) in total.

Every run is bit-reproducible from (config, seed): index draws, snapshot
coin flips and output draws consume three separate substreams, so changing
m never perturbs the i_t sequence.

Inner steps
-----------
The recursive estimators run on a dense state (explicit iterates, the
reference arithmetic) or, on sparse L2-regularized data (see
``inner_step``), on a lazy state that holds v = alpha u and x = y - eta B u
and steps in O(nnz) of the sampled row.  It builds full vectors only at
snapshots, trace records, restart points, the output and, with
``record_iterates``, every step.  Draws, IFO counts and snapshot events
are the same on both paths, and the iterates agree to rounding.
``RunResult.inner_step`` records the path.

Engine
------
When ``engine`` selects it, ``_kernel.Segments`` takes the passes up to
each event in C, bit-identical to this loop; ``RunResult.engine`` records
which ran.  Those passes are the inner steps and the snapshots whose point
is the current iterate (L2S's coin and SVRG's period): their full
gradient, IFOs, logs and stop test run in the kernel too.  The other
snapshots, which restart at x_a (SARAH, SARAH-LI, D2S) or step back
(L2S-SC), and any snapshot whose update reaches a trace threshold or the
budget, are this loop's.  Both engines append to the same logs
(``_Log``): the snapshot iterations, gradients and points, the coins, the
indices and the iterates.

The step-size planner lives in ``vropt.planner``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _kernel, sampling
from .errors import ConfigError, DescentViolation, DivergenceError
from .model import IfoCounter, kernel_view
from .sampling import (
    ImportanceTable,
    draw_snapshot_flag,
    draw_uniform_index,
    split_run_streams,
)

ALGORITHMS = ("GD", "SGD", "SVRG", "SARAH", "SARAH-LI", "L2S", "L2S-SC", "D2S")
_OUTER_LOOPS = {"SVRG", "SARAH", "SARAH-LI", "D2S"}

_DESCENT_RTOL = 1e-12
_INT64_MAX = (1 << 63) - 1  # the kernel's counts and events are int64


@dataclass(frozen=True, eq=False)
class OptimizerConfig:
    algorithm: str
    eta: float
    m: int = 1
    T: int | None = None
    S: int | None = None
    seed: int = 0
    step_back: bool = True                      # L2S-SC rollback at snapshots
    eta_schedule: Optional[Callable[[int], float]] = None  # pass index -> eta
    x0: np.ndarray | None = None                # default: origin
    record_every_pass: float | None = 1.0       # trace cadence; None = no trace
    record_iterates: bool = False
    max_ifo: int | None = None                  # hard budget, stops mid-run
    stop_grad_sq: float | None = None           # stop once a snapshot gradient
                                                # has squared norm <= this


def validate_config(config: OptimizerConfig) -> None:
    algo = config.algorithm
    if algo not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algo!r}")
    for name in ("m", "T", "S", "max_ifo"):
        value = getattr(config, name)
        if (value is not None or name == "m") and abs(
                sampling.check_int(value, name)) > _INT64_MAX:
            raise ConfigError(f"{name}={value} does not fit a signed 64-bit "
                              "integer")
    sampling.check_seed(config.seed)
    eta = config.eta
    if not (sampling.is_real(eta) and eta > 0 and math.isfinite(eta)):
        raise ConfigError("eta must be positive and finite")
    if config.T is not None and config.S is not None:
        raise ConfigError("set exactly one of T and S")
    if algo in ("GD", "SGD", "L2S"):
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
    if config.max_ifo is not None and config.max_ifo < 0:
        raise ConfigError("max_ifo must be >= 0")
    cadence = config.record_every_pass
    if cadence is not None and not (sampling.is_real(cadence) and cadence > 0
                                    and math.isfinite(cadence)):
        raise ConfigError("record_every_pass must be positive and finite")
    target = config.stop_grad_sq
    if target is not None and not sampling.is_real(target):
        raise ConfigError(f"stop_grad_sq must be a real number, not {target!r}")
    if config.eta_schedule is not None and algo not in ("GD", "SGD"):
        raise ConfigError(f"{algo} takes no eta_schedule (GD and SGD do)")
    if not config.step_back and algo != "L2S-SC":
        raise ConfigError(f"step_back=False applies to L2S-SC, not {algo}")


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
    # x at snapshots (when recorded): x_0, then each restart point x~
    snapshot_points: list = field(default_factory=list)
    stopped_early: bool = False
    reached_grad_target: bool = False
    inner_step: str = "dense"            # "sparse": lazy O(nnz) recursion
    engine: str = "python"               # "compiled": kernel inner segments

    @property
    def snapshot_count(self) -> int:
        return int(self.snapshot_iters.size)


class _Log:
    """A growable array of rows that the compiled kernel also appends to,
    in place: ``free`` makes room, the kernel writes rows from ``size`` on
    and ``size`` is set to where it stopped."""

    __slots__ = ("buf", "size")

    def __init__(self, row, dtype):
        self.buf, self.size = np.empty((64,) + row, dtype), 0

    def reserve(self, rows):
        """Room for ``rows`` rows in all, the rows held kept."""
        grown = np.empty((rows,) + self.buf.shape[1:], self.buf.dtype)
        grown[:self.size] = self.buf[:self.size]
        self.buf = grown

    def free(self) -> int:
        """Rows free at the end, at least one (doubling when full)."""
        if self.size == len(self.buf):
            self.reserve(2 * self.size)
        return len(self.buf) - self.size

    def append(self, row):
        self.free()
        self.buf[self.size] = row
        self.size += 1

    def array(self) -> np.ndarray:
        """The rows held: the buffer itself when they fill it."""
        if self.size == len(self.buf):
            return self.buf
        return self.buf[:self.size].copy()


class _Run:
    """Per-run bookkeeping: counter, streams, trace recorder, guards."""

    diverge_sq = 1e24  # ||x||^2 guard, i.e. ||x|| > 1e12

    def __init__(self, model, config, descent_cap):
        self.model, self.config = model, config
        self.descent_cap = descent_cap  # None: no first-update descent check
        self.counter = IfoCounter()
        self.streams = split_run_streams(config.seed)
        if config.x0 is None:
            self.x0 = np.zeros(model.d)
        else:
            self.x0 = np.array(config.x0, dtype=np.float64, copy=True)
            if self.x0.shape != (model.d,):
                raise ConfigError("x0 has wrong dimension")
        cadence = config.record_every_pass
        # a cadence beyond every count records x_0 only, on both engines
        self.rec_step = (None if cadence is None
                         else int(round(min(cadence * model.n, _INT64_MAX))))
        if self.rec_step is not None and self.rec_step < 1:
            raise ConfigError("record cadence below one IFO call")
        self.next_thresh = self._last_t = 0
        self._rows = []
        # the logs both engines append to (None: not kept)
        rec = config.record_iterates
        self.snapshot_iters = _Log((), np.int64)
        self.snapshot_grads, self.snapshot_points, self.iterates = (
            _Log((model.d,), np.float64) if rec else None for _ in range(3))
        self.indices = _Log((), np.int64) if rec else None
        self.stopped = self.hit_target = False
        self.f0 = model.objective(self.x0)
        self.f1 = math.nan
        if rec:
            self.iterates.append(self.x0)
        self.record(self.x0)

    def record(self, x):
        if self.rec_step is None:
            return
        while self.counter.count >= self.next_thresh:
            g = self.model.full_gradient(x)
            f = self.model.objective(x)
            if not math.isfinite(f) or abs(f) > 1e12:
                raise DivergenceError("objective exploded", self._last_t)
            self._rows.append((self.counter.count / self.model.n,
                               self.counter.count, f, float(g @ g)))
            self.next_thresh += self.rec_step

    @property
    def snaps(self) -> int:
        return self.snapshot_iters.size

    def note_snapshot(self, t, v, x):
        self.snapshot_iters.append(t)
        if self.config.record_iterates:
            self.snapshot_grads.append(v)
            self.snapshot_points.append(x)
        if (self.config.stop_grad_sq is not None
                and float(v @ v) <= self.config.stop_grad_sq):
            self.hit_target = True
            self.stopped = True

    def advance(self, est, t) -> bool:
        """Bookkeeping of update t, in order: divergence guard, iterate log,
        first-update check, trace record and the IFO budget.  True once the
        budget is spent.  The iterate is materialised only for what reads
        it."""
        nx = est.sq_norm()
        self._last_t = t
        if not math.isfinite(nx) or nx > self.diverge_sq:
            raise DivergenceError("iterate norm exploded", t)
        if self.iterates is not None:
            self.iterates.append(est.materialise())
        if t == 1:
            self.check_first_step(est.materialise(), est.eta)
        if (self.rec_step is not None
                and self.counter.count >= self.next_thresh):
            self.record(est.materialise())
        cap = self.config.max_ifo
        if cap is not None and self.counter.count >= cap:
            self.stopped = True
        return self.stopped

    def check_first_step(self, x1, eta0):
        """F(x_1) <= F(x_0) must hold whenever the first update used the full
        gradient and eta < 1/L (1/L_bar for D2S).  SGD only records F(x_1)."""
        self.f1 = self.model.objective(x1)
        cap = self.descent_cap
        if cap is not None and eta0 < 1.0 / cap:
            tol = _DESCENT_RTOL * max(1.0, abs(self.f0))
            if self.f1 > self.f0 + tol:
                raise DescentViolation(
                    f"F(x1)={self.f1!r} > F(x0)={self.f0!r} at eta={eta0!r}")

    def finish(self, x_out, total_iterations, bernoulli, inner_step,
               engine) -> RunResult:
        cols = [[row[k] for row in self._rows] for k in range(4)]
        trace = Trace(np.array(cols[0]), np.array(cols[1], dtype=np.int64),
                      np.array(cols[2]), np.array(cols[3]))
        rec = self.config.record_iterates
        return RunResult(
            config=self.config,
            x_out=x_out, f0=self.f0, f1=self.f1,
            total_ifo=self.counter.count,
            total_iterations=total_iterations,
            snapshot_iters=self.snapshot_iters.array(),
            trace=trace,
            bernoulli=None if bernoulli is None else bernoulli.array(),
            indices=self.indices.array() if rec else None,
            iterates=self.iterates.array() if rec else None,
            snapshot_grads=list(self.snapshot_grads.array()) if rec else [],
            snapshot_points=list(self.snapshot_points.array()) if rec else [],
            stopped_early=self.stopped,
            reached_grad_target=self.hit_target,
            inner_step=inner_step,
            engine=engine,
        )


# --------------------------------------------------------------------------
# Estimator states (_Dense, _LazyRecursion): step(i), materialise(prev=False)
# (x_t, or x_{t-1}), sq_norm() (||x_t||^2), kind, steps_at_snapshot and, but
# for SGD's, snapshot(x, v) (restart at x with v = grad F(x); all but the
# anchored setting then step to x - eta v).
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
    models keep the dense path, which is the bit-exact reference.  That
    crossover was measured against the Python dense loop; the compiled
    dense steps beat the lazy ones up to about d = 8192 at 8 nonzeros per
    row, so this rule picks the slower path there until it is measured
    against a compiled lazy step, which does not exist yet.
    Read through plain attribute access, so a delegating proxy gets the
    same answer.
    """
    d = model.d
    sparse = (algorithm in _LAZY_ALGORITHMS and model.ridge is not None
              and d >= _SPARSE_MIN_D
              and model.mean_row_nnz <= _SPARSE_MAX_FILL * d)
    return "sparse" if sparse else "dense"


class _Dense:
    """The plain (``code`` 0), anchored (1) or recursive (2) estimator on
    explicit iterates x_t = ``cur`` (the reference arithmetic), laid out as
    the kernel's ``vr_seg``: ``prev`` holds the anchor x~ (1) or x_{t-1}
    (2), and ``v`` grad F(x~) (1) or v_{t-1} (2).  With ``weights`` (D2S),
    the recursive increment is divided by w_i = n p_i."""

    kind = "dense"

    def __init__(self, model, eta, counter, code, x0, weights=None):
        self.model, self.eta, self.counter = model, eta, counter
        self.code, self.weights = code, weights
        self.steps_at_snapshot = code != 1
        self.cur, self.prev, self.v = x0, None, None

    def snapshot(self, x, v):
        self.prev, self.v = x, v
        self.cur = x if self.code == 1 else x - self.eta * v

    def step(self, i):
        cg = self.model.component_gradient
        g = cg(i, self.cur, self.counter)
        if self.code == 0:
            self.cur = self.cur - self.eta * g
            return
        diff = g - cg(i, self.prev, self.counter)
        if self.code == 1:
            self.cur = self.cur - self.eta * (diff + self.v)
            return
        w = self.weights
        self.v = diff + self.v if w is None else diff / w[i] + self.v
        self.prev, self.cur = self.cur, self.cur - self.eta * self.v

    def materialise(self, prev=False):
        return self.prev if prev else self.cur

    def sq_norm(self):
        # np.vdot, unlike x @ x, checks no floating-point flags: an overflow
        # here is the divergence guard's to report, without a RuntimeWarning
        return float(np.vdot(self.cur, self.cur))


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
    steps_at_snapshot = True

    def __init__(self, model, eta, counter, weights=None):
        self.model, self.eta, self.counter = model, eta, counter
        self.weights = weights
        self.lam_eta = model.ridge * eta
        self.cur, self.prev = _LazyPoint(self, False), _LazyPoint(self, True)

    def snapshot(self, x, v):
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

    def step(self, i):
        cg = self.model.component_gradient
        c1, idx, val = cg(i, self.cur, self.counter)
        c0 = cg(i, self.prev, self.counter)[0]
        if self.weights is None:
            rho, s = 1.0 - self.lam_eta, c1 - c0
        else:
            w = self.weights[i]
            rho, s = 1.0 - self.lam_eta / w, (c1 - c0) / w
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


def engine(model, algorithm: str) -> str:
    """"compiled" when ``run`` takes ``algorithm``'s inner steps on
    ``model`` in the compiled kernel, else "python".

    Read from what a run can observe: the kernel loaded (and passed its
    dot-product self-test), ``vropt.model.kernel_view`` accepts the model
    (a library model, whose oracles the kernel repeats), the two draw
    functions are still the ``sampling`` ones, and the inner steps are
    dense, so any proxy model or rebound draw takes the Python path.  GD
    has no inner steps, and the lazy recursion has no compiled form: sparse
    inner steps always run in Python.
    """
    compiled = (_kernel.lib is not None and algorithm != "GD"
                and kernel_view(model) is not None
                and draw_uniform_index is sampling.draw_uniform_index
                and draw_snapshot_flag is sampling.draw_snapshot_flag
                and inner_step(model, algorithm) == "dense")
    return "compiled" if compiled else "python"


def run(model, config: OptimizerConfig) -> RunResult:
    """Run ``config.algorithm`` on ``model``: the one optimizer loop (see
    the module docstring for the parts that set the algorithms apart)."""
    validate_config(config)
    algo, n = config.algorithm, model.n
    m, T, S = (v if v is None else operator.index(v)
               for v in (config.m, config.T, config.S))
    outer = algo in _OUTER_LOOPS
    st = _Run(model, config, None if algo == "SGD"
              else model.L_bar if algo == "D2S" else model.L)
    idx_rng, snap_rng, out_rng = st.streams
    indices = st.indices

    # estimator
    table = ImportanceTable(model.lipschitz) if algo == "D2S" else None
    weights = None if table is None else table.weights
    if inner_step(model, algo) == "sparse":
        est = _LazyRecursion(model, config.eta, st.counter, weights)
    else:
        est = _Dense(model, config.eta, st.counter,
                     {"SGD": 0, "SVRG": 1}.get(algo, 2), st.x0, weights)
    sched = config.eta_schedule or (
        (lambda k: config.eta / (k + 1)) if algo == "SGD" else None)

    # snapshot rule: the first pass is a snapshot (not for SGD); later ones
    # fall due every `period` inner steps or by a Bernoulli(1/m) coin
    first = algo != "SGD"
    coin = algo in ("L2S", "L2S-SC")
    period = 0 if algo == "GD" else m
    bern = _Log((), np.uint8) if coin else None

    # horizon: the loop ends once `updates` reaches u_cap or `st.snaps` s_cap
    if algo == "L2S-SC":
        u_cap, s_cap = -1, S + 1
    elif outer:
        u_cap, s_cap = S * (m + 1 if est.steps_at_snapshot else m), -1
    else:
        u_cap, s_cap = (T + 1 if algo == "L2S" else T), -1
    if u_cap > _INT64_MAX:
        raise ConfigError(f"the update horizon ({u_cap} updates, from T, S "
                          "and m) does not fit a signed 64-bit integer")
    if (st.iterates is not None and u_cap >= 0 and config.max_ifo is None
            and config.stop_grad_sq is None):
        # a run that cannot stop early logs x_0 and one iterate per update
        st.iterates.reserve(u_cap + 1)

    # restart/output rule: x_a with a drawn per outer loop or once (L2S);
    # one step back (L2S-SC); else the current iterate
    if algo in ("SARAH", "D2S"):
        def draw_a(): return draw_uniform_index(out_rng, m + 1)
    elif algo == "SARAH-LI":
        def draw_a(): return m
    elif algo == "L2S":
        def draw_a(): return 1 + draw_uniform_index(out_rng, T)
    else:
        draw_a = None
    keep_out = draw_a is not None and m > 0
    keep_restart = keep_out and outer
    back = algo == "L2S-SC" and config.step_back

    # the kernel also takes the snapshots whose point is the current
    # iterate: L2S's coin and SVRG's period (the others restart at x_a,
    # step back or count their snapshots)
    seg = None if engine(model, algo) == "python" else _kernel.Segments(
        model, st, est, table, sched, m if coin else 0,
        -1 if algo == "SGD" else period, u_cap, bern, algo in ("L2S", "SVRG"))
    keep = x_out = None
    a_at = -1                       # the update whose iterate is x_a
    updates = inner = 0
    while updates != u_cap and st.snaps != s_cap:
        if seg is not None:
            updates, inner = seg.run(updates, inner, a_at)
            if updates == u_cap or st.hit_target:
                break  # a target met in the kernel: x_out is its point, x_t
        if sched is not None:
            est.eta = sched(st.counter.count // n)
        if not st.snaps:
            due = first
        elif coin:
            due = draw_snapshot_flag(snap_rng, m)
            bern.append(due)
        else:
            due = inner == period
        if due:
            if not st.snaps:
                x = st.x0
            elif keep_restart:
                x = keep
            else:
                x = est.materialise(prev=back)
                if back and st.iterates is not None:
                    st.iterates.buf[updates] = x  # the step back rewrites x_t
            v = model.full_gradient(x, st.counter)
            st.note_snapshot(updates, v, x)
            if st.hit_target:
                x_out = x  # the certified point
                break
            if draw_a is not None and (outer or st.snaps == 1):
                a_at, keep = updates + draw_a(), x  # a = 0: keep x itself
            est.snapshot(x, v)
            inner = 0
            if not est.steps_at_snapshot:
                continue
        else:
            i = (draw_uniform_index(idx_rng, n) if table is None
                 else table.draw(idx_rng))
            if indices is not None:
                indices.append(i)
            est.step(i)
            inner += 1
        updates += 1
        if st.advance(est, updates):
            break
        if updates == a_at:
            keep = est.materialise()
    if x_out is None:
        x_out = (keep if keep_out and not st.stopped
                 else est.materialise() if updates else st.x0)
    return st.finish(x_out, updates, bern, est.kind,
                     "python" if seg is None else "compiled")
