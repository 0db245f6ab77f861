import pytest

from vropt import _kernel
from vropt.data import SyntheticSpec, generate_synthetic
from vropt.model import LogisticModel, NonconvexLogisticModel

from helpers import make_homogeneous_dataset, make_sparse_dataset


@pytest.fixture
def no_kernel(monkeypatch):
    """Hide the compiled kernel for one test, as when cffi or a compiler is
    missing: the code under test takes its Python path.  Whatever the test
    loads into ``vropt._kernel`` is put back afterwards."""
    for name in ("lib", "ffi", "status"):
        monkeypatch.setattr(_kernel, name, getattr(_kernel, name))
    monkeypatch.setattr(_kernel, "lib", None)


@pytest.fixture(scope="session")
def tiny_dataset():
    return generate_synthetic(
        SyntheticSpec(n=20, d=5, spread=2.0, noise_rate=0.1, seed=11))


@pytest.fixture(scope="session")
def convex_model(tiny_dataset):
    return LogisticModel(tiny_dataset, lam=0.0)


@pytest.fixture(scope="session")
def sc_model(tiny_dataset):
    return LogisticModel(tiny_dataset, lam=0.1)


@pytest.fixture(scope="session")
def nonconvex_model(tiny_dataset):
    return NonconvexLogisticModel(tiny_dataset, alpha=1.0)


@pytest.fixture(scope="session")
def homogeneous_dataset():
    return make_homogeneous_dataset()


@pytest.fixture(scope="session")
def sparse_model():
    """L2-logistic on sparse rows (d = 1024, 12 nonzeros per row): the
    recursive optimizers take their lazy inner steps on it."""
    return LogisticModel(make_sparse_dataset(), lam=1e-3)
