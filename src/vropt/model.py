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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .data import SparseRow  # noqa: F401  (re-exported)
from .errors import ConfigError, ContractError, NumericError


class IfoCounter:
    """Mutable incremental-first-order-oracle call counter, one per run."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, k: int):
        self.count += k

    def __repr__(self):
        return f"IfoCounter({self.count})"


@dataclass(frozen=True)
class SmoothnessConstants:
    per_component: np.ndarray  # L_i
    L: float                   # max_i L_i
    L_bar: float               # mean_i L_i
    mu: float                  # strong-convexity modulus (0 = none/unknown)


def _check_x(x: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d,):
        raise ContractError(f"x must have shape ({d},), got {x.shape}")
    # squares cannot cancel, so a single finite check on x.x catches NaN/Inf
    if not math.isfinite(float(x @ x)):
        raise NumericError("non-finite parameter vector")
    return x


def _stable_neg_sigmoid(z: float) -> float:
    """sigma(-z) = 1 / (1 + e^z), computed without overflow."""
    if z >= 0.0:
        e = math.exp(-z)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(z))


def _stable_log1pexp(z: float) -> float:
    """ln(1 + e^(-z)), the logistic loss term, computed without overflow."""
    if z >= 0.0:
        return math.log1p(math.exp(-z))
    return -z + math.log1p(math.exp(z))


class _MarginModel:
    """Shared machinery for losses of the form mean_i phi(b_i <a_i, x>) + r(x)."""

    def __init__(self, dataset, *, reg_smoothness: float):
        if not dataset.n:
            raise ConfigError("empty dataset")
        self.n = dataset.n
        self.d = int(dataset.d)
        self.name = dataset.name
        # the dataset's validated arrays, shared: scipy's CSR constructor
        # would copy the int64 index arrays down to int32
        self._A = sp.csr_matrix((self.n, self.d))
        self._A.indptr, self._A.indices = dataset.indptr, dataset.indices
        self._A.data, self._b = dataset.values, dataset.y
        # indexing a memoryview gives a Python number, faster than numpy's
        self._bounds, self._labels = memoryview(dataset.indptr), memoryview(dataset.y)
        self._AT = self._A.T.tocsr()  # cached: building A.T per call is costly
        # one BLAS dot per row, as SparseRow.sq_norm: a vectorised sum rounds
        # differently in the last bit, and L sets every step size
        ptr, vals = dataset.indptr.tolist(), dataset.values
        self.row_sq_norms = np.array(
            [vals[lo:hi] @ vals[lo:hi] for lo, hi in zip(ptr, ptr[1:])])
        self.lipschitz = self.row_sq_norms / 4.0 + reg_smoothness
        self.L = float(self.lipschitz.max())
        self.L_bar = float(self.lipschitz.mean())

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
        """grad f_i(x).  Counts one IFO call on the supplied counter."""
        idx, val, b = self._row(i)
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
        z = self._b * self._A.dot(x)
        coef = (-self._b * expit(-z)) / self.n
        g = self._AT.dot(coef)
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

    def smoothness_constants(self) -> SmoothnessConstants:
        return SmoothnessConstants(
            per_component=self.lipschitz.copy(),
            L=self.L,
            L_bar=self.L_bar,
            mu=self.mu,
        )

    # diagnostics helpers (bulk evaluation; not IFO-metered) -----------------
    def full_gradient_batch(self, X: np.ndarray, block: int = 512) -> np.ndarray:
        """grad F(x) for each row x of X, evaluated blockwise."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.empty_like(X)
        for lo in range(0, X.shape[0], block):
            chunk = X[lo:lo + block]
            Z = self._b[:, None] * self._A.dot(chunk.T)
            coef = (-self._b[:, None] * expit(-Z)) / self.n
            G = np.asarray(self._AT.dot(coef)).T
            for r in range(chunk.shape[0]):
                G[r] += self._reg_gradient(chunk[r])
            out[lo:lo + chunk.shape[0]] = G
        return out

    def grad_sq_norms(self, X: np.ndarray, block: int = 512) -> np.ndarray:
        """||grad F(x)||^2 for each row x of X, evaluated blockwise."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.empty(X.shape[0])
        for lo in range(0, X.shape[0], block):
            G = self.full_gradient_batch(X[lo:lo + block], block=block)
            out[lo:lo + G.shape[0]] = np.einsum("ij,ij->i", G, G)
        return out

    def component_gradient_batch(self, idx: np.ndarray, X: np.ndarray) -> np.ndarray:
        """grad f_{idx[r]}(X[r]) for every r; one paired draw per row."""
        idx = np.asarray(idx, dtype=np.int64)
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[0] == 1 and idx.size > 1:
            X = np.broadcast_to(X, (idx.size, X.shape[1]))
        rows = np.asarray(self._A[idx].todense())
        b = self._b[idx]
        z = b * np.einsum("ij,ij->i", rows, X)
        c = -b * expit(-z)
        G = c[:, None] * rows
        for r in range(X.shape[0]):
            G[r] += self._reg_gradient(X[r])
        return G


class LogisticModel(_MarginModel):
    """L2-regularized logistic regression over sparse rows."""

    def __init__(self, dataset, lam: float = 0.0):
        if lam < 0:
            raise ConfigError("lam must be >= 0")
        super().__init__(dataset, reg_smoothness=lam)
        self.lam = float(lam)
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
        if alpha <= 0:
            raise ConfigError("alpha must be > 0")
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


# spec-level functional aliases ---------------------------------------------

def smoothness_constants(model) -> SmoothnessConstants:
    return model.smoothness_constants()
