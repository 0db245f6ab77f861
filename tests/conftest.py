import pytest

from vropt.data import SyntheticSpec, generate_synthetic
from vropt.model import LogisticModel, NonconvexLogisticModel

from helpers import make_homogeneous_dataset


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
