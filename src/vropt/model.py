"""Finite-sum problems F(x) = (1/n) sum_i f_i(x) and their first-order oracles.

Two concrete losses:

* :class:`LogisticModel` -- L2-regularized logistic regression,
  f_i(x) = ln(1 + exp(-b_i <a_i, x>)) + (lam/2) ||x||^2.  The regularizer is
  part of every component, so each f_i is lam-strongly convex and
  L_i = ||a_i||^2 / 4 + lam.
* :class:`NonconvexLogisticModel` -- the logistic data term plus the smooth
  nonconvex penalty alpha * sum_j x_j^2 / (1 + x_j^2), whose second
  derivative is bounded by 2, so L_i = ||a_i||^2 / 4 + 2*alpha.

Gradient oracles are what the IFO counter meters: a component gradient costs
1, a full gradient costs n.  Objective values are free (value oracle is not
part of the IFO contract).

The data matrix A is held once, as the dataset's CSR arrays.  The full and
bulk oracles take A x, the logistic sigmoid expit(t) = 1 / (1 + e^-t) of
the margins and A^T c.  With the compiled kernel (``vropt._kernel``)
loaded, the objective takes A x for one vector, the component batch takes
expit, and a gradient's data term, A^T c with c = ((-b) expit(-b (A x))) /
n, is one call per block of iterates, which holds no n by k array of
margins and no transposed copy of A.  Without the kernel they run in scipy
(``csr_matrix.dot`` on A and on a cached A^T, ``scipy.special.expit``),
which is then imported on the first oracle call.  Both paths give the same
bits; scipy's is the reference.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernel
from .data import SparseRow  # noqa: F401  (re-exported)
from .errors import ConfigError, ContractError, NumericError

_BLOCK = 512  # rows per block of the bulk (unmetered) gradient helpers


class IfoCounter:
    """Mutable incremental-first-order-oracle call counter, one per run."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, k: int):
        self.count += k

    def __repr__(self):
        return f"IfoCounter({self.count})"


def _check_x(x: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d,):
        raise ContractError(f"x must have shape ({d},), got {x.shape}")
    # squares cannot cancel, so a single finite check on x.x catches NaN/Inf;
    # np.vdot, unlike x @ x, checks no floating-point flags, so an x.x that
    # overflows raises no RuntimeWarning
    if not math.isfinite(float(np.vdot(x, x))):
        if np.isfinite(x).all():
            raise NumericError("parameter vector too large: x.x overflows")
        raise NumericError("non-finite parameter vector")
    return x


def _stable_neg_sigmoid(z: float) -> float:
    """sigma(-z) = 1 / (1 + e^z), computed without overflow."""
    if z >= 0.0:
        e = math.exp(-z)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(z))


def _expit(t: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-t) elementwise (the kernel's, or scipy's without one)."""
    if _kernel.lib is not None:
        return _kernel.expit(t)
    from scipy.special import expit
    return expit(t)


class _CSR:
    """A (n by d) as the dataset's validated CSR arrays, shared: scipy's CSR
    constructor would copy the int64 index arrays down to int32.  ``dot``
    and ``data_gradient`` run in the kernel when it is loaded (looked up on
    every call, since it can be hidden mid-process), else in scipy.  The
    kernel's view of A and scipy's A and A^T are made on first use and
    kept."""

    __slots__ = ("indptr", "indices", "data", "shape", "_view", "_scipy")

    def __init__(self, dataset):
        self.indptr, self.indices = dataset.indptr, dataset.indices
        self.data, self.shape = dataset.values, (dataset.n, int(dataset.d))
        self._view = self._scipy = None

    def dot(self, x: np.ndarray) -> np.ndarray:
        """A @ x for x of shape (d,)."""
        if _kernel.lib is not None:
            return self._compiled().product(x)
        return self._scipy_pair()[0].dot(x)

    def data_gradient(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """A^T c for c = ((-b) expit(-b (A x))) / n, with x of shape (d,) or
        (d, k) and b multiplying A x by row: the logistic data term of the
        gradient at each column of x."""
        if _kernel.lib is not None:
            return self._compiled().data_gradient(b, x)
        A, AT = self._scipy_pair()
        if x.ndim == 2:
            b = b[:, None]
        z = b * A.dot(x)
        return AT.dot((-b * _expit(-z)) / self.shape[0])

    def _compiled(self):
        if self._view is None or self._view.ffi is not _kernel.ffi:
            self._view = _kernel.CSRView(self)
        return self._view

    def _scipy_pair(self):
        if self._scipy is None:
            import scipy.sparse as sp
            A = sp.csr_matrix(self.shape)
            A.indptr, A.indices, A.data = self.indptr, self.indices, self.data
            self._scipy = A, A.T.tocsr()  # building A.T per call is costly
        return self._scipy

    def dense_rows(self, idx: np.ndarray) -> np.ndarray:
        """Rows idx of A as a dense array, len(idx) by d."""
        lo, counts = self.indptr[idx], self.indptr[idx + 1] - self.indptr[idx]
        row = np.repeat(np.arange(idx.size), counts)
        # the k-th gathered nonzero is entry k - (nonzeros of earlier rows)
        # of its row, which starts at lo[row]
        at = np.arange(row.size) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        rows = np.zeros((idx.size, self.shape[1]))
        rows[row, self.indices[at]] = self.data[at]
        return rows


def _stable_log1pexp(z: float) -> float:
    """ln(1 + e^(-z)), the logistic loss term, computed without overflow."""
    if z >= 0.0:
        return math.log1p(math.exp(-z))
    return -z + math.log1p(math.exp(z))


class _MarginModel:
    """Shared machinery for losses of the form mean_i phi(b_i <a_i, x>) + r(x)."""

    # lam when r(x) = (lam/2) ||x||^2, whose gradient is linear in x; None
    # for other regularizers.  vropt.optim runs its recursive estimators
    # lazily (O(nnz) per step) only when this is set.
    ridge = None

    def __init__(self, dataset, *, reg_smoothness: float):
        if not dataset.n:
            raise ConfigError("empty dataset")
        self.n = dataset.n
        self.d = int(dataset.d)
        self.name = dataset.name
        self.mean_row_nnz = dataset.indices.size / self.n
        self._A, self._b = _CSR(dataset), dataset.y
        # indexing a memoryview gives a Python number, faster than numpy's
        self._bounds, self._labels = memoryview(dataset.indptr), memoryview(dataset.y)
        # one BLAS dot per row, as SparseRow.sq_norm (the kernel calls the
        # same ddot): a vectorised sum rounds differently in the last bit,
        # and L sets every step size
        self.row_sq_norms = _kernel.row_sq_norms(dataset.indptr, dataset.values)
        with np.errstate(over="ignore"):  # refused by name just below
            if self.row_sq_norms is None:
                ptr, vals = dataset.indptr.tolist(), dataset.values
                self.row_sq_norms = np.array([vals[lo:hi] @ vals[lo:hi]
                                              for lo, hi in zip(ptr, ptr[1:])])
            self.lipschitz = self.row_sq_norms / 4.0 + reg_smoothness
            self.L = float(self.lipschitz.max())
            self.L_bar = float(self.lipschitz.mean())
        if not math.isfinite(self.L_bar):
            raise ConfigError(
                "a row's squared norm overflows a double"
                if math.isinf(self.row_sq_norms.max()) else
                f"L_bar, the mean of ||a_i||^2/4 + {reg_smoothness:g} over "
                "the rows, overflows a double")

    def _row(self, i):
        """(indices, values, label) of row i; the arrays are views."""
        if not 0 <= i < self.n:
            raise ContractError(f"component index {i} out of range [0, {self.n})")
        lo, hi = self._bounds[i], self._bounds[i + 1]
        return self._A.indices[lo:hi], self._A.data[lo:hi], self._labels[i]

    # regularizer hooks -----------------------------------------------------
    def _reg_value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def _reg_gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # oracle contract -------------------------------------------------------
    def component_gradient(self, i: int, x, counter: IfoCounter | None = None):
        """grad f_i(x).  Counts one IFO call on the supplied counter.

        ``x`` may also be a lazily held iterate, any object with a
        ``gather(idx)`` method returning ``x[idx]`` (vropt.optim's sparse
        inner steps).  The gradient then comes in sparse form: the data
        coefficient ``c`` and row i's support, ``(c, idx, val)``, with
        grad f_i(x) = c * a_i + grad r(x) and a_i equal to ``val`` at ``idx``.
        """
        idx, val, b = self._row(i)
        if type(x) is not np.ndarray and hasattr(x, "gather"):
            c = -b * _stable_neg_sigmoid(b * float(val @ x.gather(idx)))
            if counter is not None:
                counter.add(1)
            return c, idx, val
        x = _check_x(x, self.d)
        z = b * float(val @ x[idx])
        c = -b * _stable_neg_sigmoid(z)
        g = self._reg_gradient(x)
        g[idx] += c * val
        if counter is not None:
            counter.add(1)
        return g

    def full_gradient(self, x, counter: IfoCounter | None = None):
        """grad F(x) = (1/n) sum_i grad f_i(x).  Counts n IFO calls."""
        x = _check_x(x, self.d)
        if counter is not None:
            counter.add(self.n)
        if self.n == 1:
            # the mean of one component is that component; same code path
            # keeps the two oracles bit-identical in the degenerate case
            return self.component_gradient(0, x)
        g = self._A.data_gradient(self._b, x)
        g += self._reg_gradient(x)
        return g

    def objective(self, x) -> float:
        """F(x).  Value oracle: never counted as IFO."""
        x = _check_x(x, self.d)
        z = self._b * self._A.dot(x)
        return float(np.logaddexp(0.0, -z).mean() + self._reg_value(x))

    def component_value(self, i: int, x) -> float:
        """f_i(x), used by the finite-difference oracle."""
        idx, val, b = self._row(i)
        x = _check_x(x, self.d)
        z = b * float(val @ x[idx])
        return _stable_log1pexp(z) + self._reg_value(x)

    # diagnostics helpers (bulk evaluation; not IFO-metered) -----------------
    def full_gradient_batch(self, X: np.ndarray) -> np.ndarray:
        """grad F(x) for each row x of X, evaluated blockwise."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.empty_like(X)
        for lo in range(0, X.shape[0], _BLOCK):
            out[lo:lo + _BLOCK] = self._gradient_block(X[lo:lo + _BLOCK])
        return out

    def grad_sq_norms(self, X: np.ndarray) -> np.ndarray:
        """||grad F(x)||^2 for each row x of X, evaluated blockwise, so that
        only one block of gradients is held at a time."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.empty(X.shape[0])
        for lo in range(0, X.shape[0], _BLOCK):
            G = self._gradient_block(X[lo:lo + _BLOCK])
            out[lo:lo + G.shape[0]] = np.einsum("ij,ij->i", G, G)
        return out

    def _gradient_block(self, chunk: np.ndarray) -> np.ndarray:
        """grad F(x) for each row x of ``chunk``, C-ordered: the einsum of
        ``grad_sq_norms`` sums in another order on a transposed layout."""
        G = self._A.data_gradient(self._b, chunk.T).T
        G += self._reg_gradient(chunk)
        return np.ascontiguousarray(G)

    def component_gradient_batch(self, idx: np.ndarray, X: np.ndarray) -> np.ndarray:
        """grad f_{idx[r]}(X[r]) for every r; one paired draw per row."""
        idx = np.asarray(idx, dtype=np.int64)
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[0] == 1 and idx.size > 1:
            X = np.broadcast_to(X, (idx.size, X.shape[1]))
        if idx.size and not 0 <= idx.min() <= idx.max() < self.n:
            raise ContractError(f"component indices out of range [0, {self.n})")
        rows = self._A.dense_rows(idx)
        b = self._b[idx]
        z = b * np.einsum("ij,ij->i", rows, X)
        c = -b * _expit(-z)
        G = c[:, None] * rows
        G += self._reg_gradient(X)
        return G


class LogisticModel(_MarginModel):
    """L2-regularized logistic regression over sparse rows."""

    def __init__(self, dataset, lam: float = 0.0):
        if not 0 <= lam < math.inf:
            raise ConfigError("lam must be >= 0 and finite")
        super().__init__(dataset, reg_smoothness=lam)
        self.lam = self.ridge = float(lam)
        self.mu = float(lam)
        self.convexity = "strongly-convex" if lam > 0 else "convex"

    def _reg_value(self, x):
        return 0.5 * self.lam * float(x @ x)

    def _reg_gradient(self, x):
        return self.lam * x


class NonconvexLogisticModel(_MarginModel):
    """Logistic data term plus the bounded smooth penalty
    alpha * sum_j x_j^2 / (1 + x_j^2)."""

    def __init__(self, dataset, alpha: float = 1.0):
        if not 0 < alpha < math.inf:
            raise ConfigError("alpha must be > 0 and finite")
        super().__init__(dataset, reg_smoothness=2.0 * alpha)
        self.alpha = float(alpha)
        self.mu = 0.0
        self.convexity = "nonconvex"

    def _reg_value(self, x):
        x2 = x * x
        return self.alpha * float((x2 / (1.0 + x2)).sum())

    def _reg_gradient(self, x):
        den = 1.0 + x * x
        return self.alpha * (2.0 * x) / (den * den)


def kernel_view(model):
    """What the compiled inner segments (``_segment.c``) read of ``model``
    beside A's CSR view (``_CSR._compiled``): the labels b and the
    regularizer by the kernel's code (0: (lam/2) ||x||^2, 1: alpha sum_j
    x_j^2 / (1 + x_j^2)) and constant, as ``(labels, reg, reg_c)``.  None
    unless ``model`` is exactly one of the two models above, whose oracles
    the kernel repeats: a subclass may change an oracle, and a delegating
    proxy (one that times the oracle calls, say) must see every call."""
    if type(model) is LogisticModel:
        return model._b, 0, model.lam
    if type(model) is NonconvexLogisticModel:
        return model._b, 1, model.alpha
    return None
