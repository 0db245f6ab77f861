"""The compiled CSR products, expit and data gradient of the full and bulk
oracles against scipy, whose code they replace and which stays the
fallback: every result byte-equal, with the kernel loaded and with it
hidden; and scipy kept off the import path while the kernel is loaded."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from vropt import _kernel
from vropt.data import SyntheticSpec, generate_synthetic
from vropt.errors import ContractError
from vropt.model import LogisticModel, NonconvexLogisticModel

from helpers import make_sparse_dataset

ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1]
                                        / "src")}

needs_kernel = pytest.mark.skipif(
    _kernel.lib is None, reason=f"compiled kernel: {_kernel.status}")


def _random_csr(seed, n, d, density):
    """An n by d CSR matrix with empty rows (``density`` may be 0), values
    over twenty orders of magnitude, so that the order of a sum shows."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, d)) < density
    dense = np.where(mask, rng.standard_normal((n, d))
                     * 10.0 ** rng.uniform(-10, 10, (n, d)), 0.0)
    return sp.csr_matrix(dense), rng


@needs_kernel
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 7, 40]),
       d=st.sampled_from([1, 3, 33]), density=st.sampled_from([0.0, 0.2, 0.7, 1.0]),
       k=st.sampled_from([1, 2, 513]), fortran=st.booleans())
def test_products_equal_scipys(seed, n, d, density, k, fortran):
    """A @ x as scipy's csr_matrix.dot gives it, and the data gradient
    A^T c, c = (-b expit(-b (A X))) / n, as scipy's A, expit and transposed
    copy compose it, for one vector (1-D) and for k at once, in either
    order, with random labels of +-1."""
    A, rng = _random_csr(seed, n, d, density)
    view = _kernel.CSRView(A)
    x, b = rng.standard_normal((d, k)), rng.choice([-1.0, 1.0], n)
    if k == 1:
        x = x[:, 0]
        assert view.product(x).tobytes() == A.dot(x).tobytes()
    elif fortran:
        x = np.asfortranarray(x)
    by_row = b if k == 1 else b[:, None]
    z = by_row * A.dot(x)
    want = A.T.tocsr().dot((-by_row * expit(-z)) / n)
    assert view.data_gradient(b, x).tobytes() == want.tobytes()


@needs_kernel
@settings(max_examples=200, deadline=None)
@given(t=st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
def test_expit_equals_scipys(t):
    t = np.array(t + list(_kernel.EXPIT_EDGES))
    assert _kernel.expit(t).tobytes() == expit(t).tobytes()


@needs_kernel
def test_products_refuse_bad_shapes():
    """The kernel follows the bounds, so they are checked before it runs."""
    good = dict(indptr=np.array([0, 1, 1]), indices=np.array([2]),
                data=np.array([1.0]), shape=(2, 3))
    for bad in (dict(indices=np.array([3])), dict(indices=np.array([-1])),
                dict(indptr=np.array([0, 2, 1])), dict(indptr=np.array([0, 1])),
                dict(data=np.array([1.0, 2.0]))):
        with pytest.raises(ValueError):
            _kernel.CSRView(SimpleNamespace(**{**good, **bad}))
    view = _kernel.CSRView(SimpleNamespace(**good))
    for x in (np.ones(2), np.ones((3, 1, 1)), np.ones((3, 1))):
        with pytest.raises(ValueError):
            view.product(x)


@needs_kernel
@pytest.mark.parametrize("broken", ["expit", "product"])
def test_self_test_refuses_a_kernel_off_by_one_ulp(monkeypatch, broken):
    assert _kernel._self_test()
    if broken == "expit":
        exact = _kernel.expit
        monkeypatch.setattr(_kernel, "expit",
                            lambda t: np.nextafter(exact(t), np.inf))
    else:
        exact = _kernel.CSRView.product
        monkeypatch.setattr(_kernel.CSRView, "product", lambda self, x:
                            np.nextafter(exact(self, x), np.inf))
    assert not _kernel._self_test()


@needs_kernel
def test_self_test_refuses_a_data_gradient_off_by_one_ulp(monkeypatch):
    """The fused entry is checked on its own: its products and expit could
    pass while it rounds one coefficient or one sum differently."""
    assert _kernel._self_test()
    exact = _kernel.CSRView.data_gradient
    monkeypatch.setattr(_kernel.CSRView, "data_gradient", lambda self, b, x:
                        np.nextafter(exact(self, b, x), np.inf))
    assert not _kernel._self_test()


@needs_kernel
def test_data_gradient_refuses_bad_shapes():
    view = _kernel.CSRView(SimpleNamespace(
        indptr=np.array([0, 1, 1]), indices=np.array([2]),
        data=np.array([1.0]), shape=(2, 3)))
    for b, x in ((np.ones(3), np.ones(3)), (np.ones(2), np.ones(2)),
                 (np.ones(2), np.ones((2, 4))), (np.ones((2, 1)), np.ones(3))):
        with pytest.raises(ValueError):
            view.data_gradient(b, x)
    assert view.data_gradient([1.0, -1.0], np.ones((3, 4))).shape == (3, 4)


@needs_kernel
def test_grad_sq_norms_holds_no_block_of_margins():
    """With the kernel, a block of 512 iterates takes one call that keeps
    one row's coefficients at a time, where the numpy composition allocated
    n by 512 arrays of margins and coefficients, several at once (a
    tracemalloc peak of 12.2 MiB on this model)."""
    model = LogisticModel(generate_synthetic(SyntheticSpec(n=1024, d=16,
                                                           seed=2)), lam=0.0)
    X = np.random.default_rng(0).standard_normal((1024, model.d))
    model.grad_sq_norms(X[:1])  # the CSR view is made once, beforehand
    tracemalloc.start()
    try:
        model.grad_sq_norms(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * model.n * 512 * 8


# -- the oracles -------------------------------------------------------------

class ScipyReference:
    """The oracles as scipy computes them: A, a transposed copy, expit."""

    def __init__(self, model, dataset):
        self.model, self.b, self.n = model, dataset.y, dataset.n
        self.A = sp.csr_matrix((dataset.values, dataset.indices,
                                dataset.indptr), shape=(dataset.n, dataset.d))
        self.AT = self.A.T.tocsr()

    def full_gradient(self, x):
        z = self.b * self.A.dot(x)
        g = self.AT.dot((-self.b * expit(-z)) / self.n)
        g += self.model._reg_gradient(x)
        return g

    def objective(self, x):
        z = self.b * self.A.dot(x)
        return float(np.logaddexp(0.0, -z).mean() + self.model._reg_value(x))

    def full_gradient_batch(self, X):
        Z = self.b[:, None] * self.A.dot(X.T)
        G = self.AT.dot((-self.b[:, None] * expit(-Z)) / self.n).T
        G += self.model._reg_gradient(X)
        return G

    def component_gradient_batch(self, idx, X):
        rows = np.asarray(self.A[idx].todense())
        b = self.b[idx]
        c = -b * expit(-b * np.einsum("ij,ij->i", rows, X))
        G = c[:, None] * rows
        G += self.model._reg_gradient(X)
        return G


@pytest.fixture(scope="module")
def models():
    """(model, its dataset) by name, shared by both paths."""
    dense = generate_synthetic(SyntheticSpec(n=600, d=16, seed=3))
    sparse = make_sparse_dataset(n=300, d=1024)
    return {"dense": (LogisticModel(dense, lam=1e-3), dense),
            "sparse": (LogisticModel(sparse, lam=1e-4), sparse),
            "nonconvex": (NonconvexLogisticModel(dense, alpha=0.7), dense)}


@pytest.mark.parametrize("kernel", ["loaded", "hidden"])
@pytest.mark.parametrize("name", ["dense", "sparse", "nonconvex"])
def test_oracles_equal_scipys(request, models, kernel, name):
    """full_gradient, objective and the bulk helpers (blocks of 512 and a
    part block) give scipy's bytes, the paths chosen per call."""
    model, dataset = models[name]
    ref = ScipyReference(model, dataset)
    if kernel == "hidden":
        request.getfixturevalue("no_kernel")
    elif _kernel.lib is None:
        pytest.skip(f"compiled kernel: {_kernel.status}")
    rng = np.random.default_rng(7)
    for scale in (0.01, 1.0, 100.0):
        X = scale * rng.standard_normal((700, model.d))
        for x in X[:5]:
            assert model.full_gradient(x).tobytes() == ref.full_gradient(x).tobytes()
            assert model.objective(x) == ref.objective(x)
        blocks = [np.ascontiguousarray(ref.full_gradient_batch(X[lo:lo + 512]))
                  for lo in (0, 512)]
        assert model.full_gradient_batch(X).tobytes() == np.vstack(blocks).tobytes()
        assert model.grad_sq_norms(X).tobytes() == np.concatenate(
            [np.einsum("ij,ij->i", B, B) for B in blocks]).tobytes()
        idx = rng.integers(0, model.n, X.shape[0])
        assert (model.component_gradient_batch(idx, X).tobytes()
                == ref.component_gradient_batch(idx, X).tobytes())
        one = np.broadcast_to(X[:1], (9, model.d))
        assert (model.component_gradient_batch(idx[:9], X[:1]).tobytes()
                == ref.component_gradient_batch(idx[:9], one).tobytes())


@pytest.mark.parametrize("bad", [-1, -2, 600])
def test_component_batch_refuses_indices_out_of_range(models, bad):
    """Rows are gathered from indptr[idx] to indptr[idx + 1], where a
    negative index would pair one row's entries with another's label."""
    model = models["dense"][0]
    with pytest.raises(ContractError):
        model.component_gradient_batch(np.array([0, bad]), np.zeros((2, model.d)))


def test_scipy_stays_off_the_import_path():
    """With the kernel loaded, importing vropt and its CLI and taking every
    oracle imports no scipy.sparse or scipy.special; with cffi hidden, the
    full oracle imports them on its first call and gives the same bytes."""
    script = (
        "import sys\n"
        "if sys.argv[1] == 'hidden': sys.modules['cffi'] = None\n"
        "import vropt, vropt.cli, vropt._kernel as k\n"
        "names = ('scipy.sparse', 'scipy.special')\n"
        "before = ','.join(m for m in names if m in sys.modules) or '-'\n"
        "from vropt.data import SyntheticSpec, generate_synthetic\n"
        "m = vropt.LogisticModel(generate_synthetic(SyntheticSpec("
        "n=30, d=4, seed=0)), lam=0.1)\n"
        "g = m.full_gradient([0.1, -0.2, 0.3, 0.4])\n"
        "m.grad_sq_norms([[0.1, -0.2, 0.3, 0.4]])\n"
        "after = ','.join(m for m in names if m in sys.modules) or '-'\n"
        "print(k.lib is not None, before, after, g.tobytes().hex())\n")
    outs = {}
    for kernel in ("loaded", "hidden"):
        out = subprocess.run([sys.executable, "-c", script, kernel],
                             capture_output=True, text=True, env=ENV,
                             timeout=300)
        assert out.returncode == 0, out.stderr
        outs[kernel] = out.stdout.split()
    gradient = outs["hidden"][3]
    assert outs["hidden"] == ["False", "-", "scipy.sparse,scipy.special",
                              gradient]
    if outs["loaded"][0] == "False":
        pytest.skip(f"compiled kernel: {_kernel.status}")
    assert outs["loaded"] == ["True", "-", "-", gradient]
