"""Lazy O(nnz) inner steps of the recursive estimators against the dense
reference path they replace."""

import numpy as np
import pytest

from vropt.errors import DivergenceError
from vropt.model import IfoCounter, LogisticModel, NonconvexLogisticModel
from vropt.optim import OptimizerConfig, _LazyRecursion, inner_step, run

from helpers import make_sparse_dataset


class DenseView:
    """Delegating model that reports no L2 regularizer, so the optimizers
    keep the dense reference path on the wrapped model's oracles."""

    ridge = None

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)


class CountingProxy:
    """Minimal delegating wrapper that counts the metered oracle calls."""

    def __init__(self, model):
        self._model = model
        self.component_calls = 0
        self.metered_full_calls = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def component_gradient(self, i, x, counter=None):
        self.component_calls += 1
        return self._model.component_gradient(i, x, counter)

    def full_gradient(self, x, counter=None):
        if counter is not None:
            self.metered_full_calls += 1
        return self._model.full_gradient(x, counter)


def _eta(model, algo, scale=0.5):
    return scale / (model.L_bar if algo == "D2S" else model.L)


@pytest.fixture(scope="module")
def models():
    """Three sparse L2-logistic problems: moderately and not at all
    regularized, and one whose regularizer dominates (rho about 1/2 per
    step, so the lazy state is renormalised every few steps)."""
    return {
        "lam1e-3": LogisticModel(make_sparse_dataset(seed=1), lam=1e-3),
        "lam0": LogisticModel(make_sparse_dataset(seed=2), lam=0.0),
        "ridge-dominated": LogisticModel(
            make_sparse_dataset(seed=3, scale=0.1), lam=1.0),
    }


LONG_RUNS = [
    ("SARAH", dict(m=1500, S=2)),
    ("SARAH-LI", dict(m=1500, S=2)),
    ("D2S", dict(m=1500, S=2)),
    ("L2S", dict(m=400, T=3000)),
    ("L2S-SC", dict(m=400, S=6)),
]


def _paths(model, config):
    sparse, dense = run(model, config), run(DenseView(model), config)
    assert (sparse.inner_step, dense.inner_step) == ("sparse", "dense")
    return sparse, dense


def _same_events(a, b):
    assert a.total_ifo == b.total_ifo
    assert a.total_iterations == b.total_iterations
    assert np.array_equal(a.snapshot_iters, b.snapshot_iters)
    if a.bernoulli is not None or b.bernoulli is not None:
        assert np.array_equal(a.bernoulli, b.bernoulli)
    assert a.stopped_early == b.stopped_early
    assert a.reached_grad_target == b.reached_grad_target


@pytest.mark.parametrize("name", ["lam1e-3", "lam0", "ridge-dominated"])
@pytest.mark.parametrize("algo,extra", LONG_RUNS)
def test_lazy_iterates_match_dense_reference(models, name, algo, extra):
    model = models[name]
    config = OptimizerConfig(algo, eta=_eta(model, algo), seed=3,
                             record_iterates=True, **extra)
    sparse, dense = _paths(model, config)
    _same_events(sparse, dense)
    assert np.array_equal(sparse.indices, dense.indices)
    assert sparse.iterates.shape == dense.iterates.shape
    assert len(sparse.iterates) > 2000
    err = np.linalg.norm(sparse.iterates - dense.iterates, axis=1)
    assert np.all(err <= 1e-10 * np.linalg.norm(dense.iterates, axis=1))
    assert np.allclose(sparse.x_out, dense.x_out, rtol=0, atol=1e-10
                       * np.linalg.norm(dense.x_out))
    # snapshots are dense full gradients at the materialised points
    assert len(sparse.snapshot_grads) == sparse.snapshot_count
    for g, x in zip(sparse.snapshot_grads, sparse.snapshot_points):
        assert np.array_equal(g, model.full_gradient(x))
    assert np.allclose(sparse.trace.grad_sq, dense.trace.grad_sq,
                       rtol=1e-8, atol=1e-20)


def test_selection_reads_observable_properties(models, tiny_dataset):
    model = models["lam1e-3"]
    for algo in ("SARAH", "SARAH-LI", "D2S", "L2S", "L2S-SC"):
        assert inner_step(model, algo) == "sparse"
        assert inner_step(DenseView(model), algo) == "dense"
    for algo in ("GD", "SGD", "SVRG"):
        assert inner_step(model, algo) == "dense"
    nonconvex = NonconvexLogisticModel(make_sparse_dataset(seed=1), alpha=1.0)
    assert inner_step(nonconvex, "SARAH") == "dense"
    # small d stays dense even with sparse rows
    assert inner_step(LogisticModel(tiny_dataset, lam=0.1), "SARAH") == "dense"
    assert inner_step(LogisticModel(make_sparse_dataset(d=256, nnz=4),
                                    lam=0.1), "SARAH") == "dense"
    # rows filling more than a quarter of d stay dense
    assert inner_step(LogisticModel(make_sparse_dataset(n=40, d=1024, nnz=300),
                                    lam=0.1), "SARAH") == "dense"


@pytest.mark.parametrize("algo,extra", [("SARAH", dict(m=600, S=2)),
                                        ("L2S", dict(m=200, T=900)),
                                        ("D2S", dict(m=600, S=2))])
def test_delegating_proxy_keeps_path_and_counts(models, algo, extra):
    model = models["lam1e-3"]
    config = OptimizerConfig(algo, eta=_eta(model, algo), seed=4,
                             record_every_pass=0.5, **extra)
    proxy = CountingProxy(model)
    wrapped, plain = run(proxy, config), run(model, config)
    assert wrapped.inner_step == plain.inner_step == "sparse"
    assert (proxy.component_calls + model.n * proxy.metered_full_calls
            == wrapped.total_ifo == plain.total_ifo)
    assert wrapped.x_out.tobytes() == plain.x_out.tobytes()
    assert np.array_equal(wrapped.trace.grad_sq, plain.trace.grad_sq)


@pytest.mark.parametrize("name", ["lam1e-3", "lam0", "ridge-dominated"])
def test_guard_norm_tracks_materialised_iterate(models, name):
    # the divergence guard reads ||x_t||^2 from running sums
    model = models[name]
    state = _LazyRecursion(model, 0.5 / model.L, IfoCounter())
    rng = np.random.default_rng(0)
    state.snapshot(rng.standard_normal(model.d), model.full_gradient(
        np.zeros(model.d)))
    for i in rng.integers(model.n, size=3000):
        state.step(int(i))
        x = state.materialise()
        assert state.sq_norm() == pytest.approx(float(x @ x), rel=1e-9)


@pytest.mark.parametrize("algo,extra", [("SARAH", dict(m=300, S=2)),
                                        ("D2S", dict(m=300, S=2)),
                                        ("L2S", dict(m=50, T=300)),
                                        ("L2S-SC", dict(m=50, S=5))])
def test_divergence_names_same_iteration(models, algo, extra):
    # rho = 1 - lam * eta = -2: the estimator doubles and flips each step
    model = models["lam1e-3"]
    config = OptimizerConfig(algo, eta=3.0 / model.ridge, seed=2,
                             record_every_pass=None, **extra)
    with pytest.raises(DivergenceError) as sparse_err:
        run(model, config)
    with pytest.raises(DivergenceError) as dense_err:
        run(DenseView(model), config)
    assert sparse_err.value.iteration == dense_err.value.iteration > 10


@pytest.mark.parametrize("algo,extra", [("SARAH", dict(m=300, S=40)),
                                        ("SARAH-LI", dict(m=300, S=40)),
                                        ("D2S", dict(m=300, S=40)),
                                        ("L2S", dict(m=100, T=20000)),
                                        ("L2S-SC", dict(m=100, S=200))])
@pytest.mark.parametrize("stop", [dict(max_ifo=4321),
                                  dict(stop_grad_sq=1e-9)])
def test_stops_match_dense_reference(models, algo, extra, stop):
    model = models["lam1e-3"]
    config = OptimizerConfig(algo, eta=_eta(model, algo), seed=6,
                             record_every_pass=None, **extra, **stop)
    sparse, dense = _paths(model, config)
    _same_events(sparse, dense)
    assert sparse.stopped_early
    if "stop_grad_sq" in stop:
        assert sparse.reached_grad_target
    assert np.allclose(sparse.x_out, dense.x_out, rtol=0, atol=1e-10
                       * np.linalg.norm(dense.x_out))
