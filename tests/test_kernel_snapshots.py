"""Snapshots taken inside the compiled segment (L2S's coin and SVRG's
period, whose point is the current iterate) against the Python loop: every
RunResult field bit-identical, also where the run stops at a kernel
snapshot or a trace threshold or the IFO budget falls on its pass, and a
run that crosses into the kernel a handful of times, not once per
snapshot."""

from fractions import Fraction

import numpy as np
import pytest

from vropt import _kernel
from vropt.data import SyntheticSpec, generate_synthetic
from vropt.model import LogisticModel, NonconvexLogisticModel
from vropt.optim import OptimizerConfig, run

from test_segments import Proxy, _eta, _outcome, assert_same_run

needs_kernel = pytest.mark.skipif(
    _kernel.lib is None, reason=f"compiled kernel: {_kernel.status}")

CASES = [("L2S", m) for m in (1, 2, 3, 32)] + [("SVRG", m) for m in (1, 2, 5)]


@pytest.fixture(scope="module")
def models():
    dense = SyntheticSpec(n=120, d=16, spread=1.5, noise_rate=0.1, seed=5)
    one = SyntheticSpec(n=1, d=5, spread=1.5, noise_rate=0.0, seed=2)
    return {
        "dense": LogisticModel(generate_synthetic(dense), lam=1e-3),
        "dense-lam0": LogisticModel(generate_synthetic(dense), lam=0.0),
        "nonconvex": NonconvexLogisticModel(generate_synthetic(dense),
                                            alpha=0.5),
        # full_gradient is the one component's gradient (dense_grad)
        "n1": LogisticModel(generate_synthetic(one), lam=0.1),
    }


def _config(model, algo, m, seed=0, **kw):
    horizon = dict(T=300) if algo == "L2S" else dict(S=4)
    return OptimizerConfig(algo, eta=_eta(model, algo), m=m, seed=seed,
                           **{**horizon, **kw})


def _same(model, config):
    """The compiled run, after checking it against the Python loop's."""
    compiled = _outcome(model, config)
    assert_same_run(compiled, _outcome(Proxy(model), config))
    if not isinstance(compiled, tuple):
        assert compiled.engine == "compiled"
    return compiled


def _count_before(result, k, n):
    """The IFO count before snapshot k's pass: n per earlier snapshot and 2
    per earlier step (L2S's snapshots are updates too, SVRG's are not)."""
    t = int(result.snapshot_iters[k])
    steps = t - k if result.config.algorithm == "L2S" else t
    return k * n + 2 * steps


def _reference(model, algo, m, seed):
    return run(model, _config(model, algo, m, seed, record_iterates=True))


@needs_kernel
@pytest.mark.parametrize("algo,m", CASES)
@pytest.mark.parametrize("name", ["dense", "dense-lam0", "nonconvex", "n1"])
def test_kernel_snapshots_are_bit_identical(models, name, algo, m):
    model = models[name]
    for seed in (0, 3):
        for kw in (dict(), dict(record_iterates=True),
                   dict(record_every_pass=None),
                   dict(record_iterates=True, record_every_pass=2),
                   dict(x0=np.linspace(-0.2, 0.3, model.d))):
            _same(model, _config(model, algo, m, seed, **kw))


def _later_snapshots(result):
    """Snapshots after the first (the first is always Python's)."""
    return range(1, result.snapshot_count)


@needs_kernel
@pytest.mark.parametrize("algo,m", CASES)
@pytest.mark.parametrize("name", ["dense", "nonconvex", "n1"])
def test_stop_target_met_at_a_kernel_snapshot(models, name, algo, m):
    """A target equal to a later snapshot's ||v||^2, below every earlier
    one, stops the run at that snapshot with its point as the output; a
    target a hair below it (a Fraction, compared exactly) does not."""
    model = models[name]
    ref = _reference(model, algo, m, seed=1)
    g2 = [float(v @ v) for v in ref.snapshot_grads]
    ks = [k for k in _later_snapshots(ref) if g2[k] < min(g2[:k])][:3]
    assert ks
    for k in ks:
        for target, stops in ((g2[k], True), (Fraction(g2[k]), True),
                              (Fraction(g2[k]) - Fraction(1, 10 ** 400),
                               False)):
            got = _same(model, _config(model, algo, m, 1, stop_grad_sq=target,
                                       record_iterates=True))
            stopped_at_k = (got.reached_grad_target
                            and got.snapshot_count == k + 1)
            assert stopped_at_k == stops
            if stops:
                assert got.x_out.tobytes() == got.snapshot_points[k].tobytes()


@needs_kernel
@pytest.mark.parametrize("algo,m", CASES)
@pytest.mark.parametrize("name", ["dense", "n1"])
def test_thresholds_on_a_snapshot_pass(models, name, algo, m):
    """The IFO budget and the first trace threshold just before, at and
    just after the end of a later snapshot's pass.  A budget that ends
    with the pass stops the run right after snapshot k: at once for L2S,
    whose snapshot is an update, after one more step for SVRG, whose
    snapshot only moves the anchor."""
    model = models[name]
    ref = _reference(model, algo, m, seed=2)
    n = model.n
    for k in list(_later_snapshots(ref))[:2]:
        end = _count_before(ref, k, n) + n
        for at in sorted({end - 1, end, end + 1} - {0}):
            got = _same(model, _config(model, algo, m, 2, max_ifo=at))
            if at == end:
                assert got.snapshot_count == k + 1
                assert got.total_ifo == end + (2 if algo == "SVRG" else 0)
            _same(model, _config(model, algo, m, 2, record_every_pass=at / n,
                                 record_iterates=True))


@pytest.fixture(scope="module")
def l2s_dense():
    """The benchmark's l2s-dense shape (criterion 5)."""
    spec = SyntheticSpec(n=1024, d=16, spread=1.5, noise_rate=0.1, seed=91)
    return LogisticModel(generate_synthetic(spec), lam=0.0)


@needs_kernel
@pytest.mark.parametrize("seed", [0, 1])
def test_l2s_dense_shape(l2s_dense, seed, monkeypatch):
    """T = 20000 and m = 32, with the iterates recorded: about 650
    snapshots, bit-identical to the Python loop, in a handful of
    ``Segments.run`` calls (one per snapshot before they moved into the
    kernel)."""
    calls = []
    original = _kernel.Segments.run

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(_kernel.Segments, "run", counted)
    model = l2s_dense
    config = OptimizerConfig("L2S", eta=0.5 / model.L, m=32, T=20_000,
                             seed=seed, record_every_pass=None,
                             record_iterates=True)
    got = _same(model, config)
    assert got.snapshot_count > 500
    assert got.snapshot_count == 1 + int(got.bernoulli.sum())
    assert len(calls) <= 5


@needs_kernel
def test_svrg_snapshots_stay_in_the_kernel(models, monkeypatch):
    calls = []
    original = _kernel.Segments.run
    monkeypatch.setattr(_kernel.Segments, "run",
                        lambda self, *a: calls.append(a) or original(self, *a))
    model = models["dense"]
    got = run(model, _config(model, "SVRG", 5, S=40, record_every_pass=None))
    assert got.snapshot_count == 40 and len(calls) <= 3


def test_at_most():
    """The double the kernel compares ||v||^2 with: v <= target exactly
    when v <= at_most(target)."""
    big = 2 ** 53
    assert np.isnan(_kernel.at_most(None))
    assert _kernel.at_most(0.5) == 0.5
    assert _kernel.at_most(big + 3) == big + 2  # float() rounds up to 2^53+4
    assert _kernel.at_most(big + 1) == big
    assert _kernel.at_most(Fraction(1, 3)) <= Fraction(1, 3)
    assert np.nextafter(_kernel.at_most(Fraction(1, 3)), 1.0) > Fraction(1, 3)
    assert _kernel.at_most(10 ** 400) == np.finfo(float).max
    assert _kernel.at_most(-10 ** 400) == -np.inf
    assert _kernel.at_most(float("inf")) == np.inf
