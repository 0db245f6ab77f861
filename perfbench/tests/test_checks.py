"""The benchmark's correctness checks fire on corrupted results, and the
tracing tools leave runs bit-identical.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json

import numpy as np
import pytest

import checks as chk
import rcv1gen
from tracing import TracedModel, Tracer, rebound
from vropt import LogisticModel, OptimizerConfig, run
from vropt.data import SyntheticSpec, generate_synthetic, parse_libsvm, write_libsvm
from workloads import HERE, WORKLOADS, Rep, identity_diffs


@pytest.fixture(scope="module")
def model():
    ds = generate_synthetic(SyntheticSpec(n=64, d=5, spread=1.5,
                                          noise_rate=0.1, seed=3))
    return LogisticModel(ds, lam=0.01)


def l2s_config(model, seed=0):
    return OptimizerConfig("L2S", eta=0.5 / model.L, m=8, T=400, seed=seed,
                           record_every_pass=None, record_iterates=True)


@pytest.fixture(scope="module")
def result(model):
    return run(model, l2s_config(model))


def test_clean_result_passes_every_check(model, result):
    checks = chk.Checks()
    chk.check_ifo_events(checks, "l2s", "L2S", model.n, result)
    chk.check_descent(checks, "l2s", model, result.x_out)
    pins = {"indices_digest": chk.digest(result.indices, np.int64),
            "ifo_total": result.total_ifo, "objective": model.objective(result.x_out)}
    chk.compare_pins(checks, "l2s", dict(pins), pins)
    assert checks.failed == 0 and checks.attempted == 5
    assert chk.same_run(result, run(model, l2s_config(model))) == []


def test_wrong_ifo_total_fires(model, result):
    checks = chk.Checks()
    bad = dataclasses.replace(result, total_ifo=result.total_ifo + 2)
    assert not chk.check_ifo_events(checks, "l2s", "L2S", model.n, bad)
    assert checks.failed == 1
    assert chk.same_run(result, bad) == [
        f"ifo {result.total_ifo} != {result.total_ifo + 2}"]


def test_flipped_index_fires(model, result):
    flipped = result.indices.copy()
    flipped[7] = (flipped[7] + 1) % model.n
    bad = dataclasses.replace(result, indices=flipped)
    assert chk.same_run(result, bad) == ["indices differ"]
    checks = chk.Checks()
    chk.compare_pins(checks, "l2s",
                     {"indices_digest": chk.digest(flipped, np.int64)},
                     {"indices_digest": chk.digest(result.indices, np.int64)})
    assert checks.failed == 1


def test_perturbed_x_out_fires(model, result):
    x = result.x_out.copy()
    x[0] += 1e-3
    bad = dataclasses.replace(result, x_out=x)
    assert chk.same_run(result, bad) == ["x_out bits differ"]

    def grad_sq(v):
        g = model.full_gradient(v)
        return float(g @ g)

    checks = chk.Checks()
    chk.compare_pins(checks, "l2s", {"final_grad_sq": grad_sq(x)},
                     {"final_grad_sq": grad_sq(result.x_out)})
    chk.check_descent(checks, "l2s", model, np.full(model.d, 1e3))
    assert checks.failed == 2


def test_missing_pins_fail(result):
    checks = chk.Checks()
    chk.compare_pins(checks, "l2s", {"ifo_total": result.total_ifo}, None)
    assert checks.failed == 1


@pytest.mark.parametrize("algorithm,kw", [
    ("SGD", dict(T=300)),
    ("SVRG", dict(S=3, m=20)),
    ("SARAH", dict(S=3, m=20)),
    ("L2S", dict(T=300, m=8)),
    ("L2S-SC", dict(S=5, m=8)),
])
def test_ifo_events_rule_matches_every_algorithm(model, algorithm, kw):
    for max_ifo in (None, 5 * model.n + 3):
        res = run(model, OptimizerConfig(algorithm, eta=0.3 / model.L,
                                         seed=1, max_ifo=max_ifo, **kw))
        assert chk.events_ifo(algorithm, model.n, res) == res.total_ifo


def test_traced_run_is_bit_identical_and_reconciles(model):
    twin_result = run(model, l2s_config(model, seed=4))
    twin = Rep(runs=[("l2s", "L2S", twin_result)], ifo=twin_result.total_ifo)
    tracer = Tracer()
    with rebound(tracer):
        traced_result = run(TracedModel(model, tracer), l2s_config(model, seed=4))
    traced = Rep(runs=[("l2s", "L2S", traced_result)],
                 ifo=traced_result.total_ifo)
    assert identity_diffs(twin, traced, tracer) == []
    comp = tracer.count("model.component_gradient")
    metered = tracer.count("model.full_gradient.metered")
    assert comp + model.n * metered == traced_result.total_ifo
    assert tracer.count("sampling.draw") > 0

    # a draw log that disagrees with the recorded indices is caught
    stream, value = tracer.draws[-1]
    tracer.draws[-1] = (stream, value + 1)
    assert identity_diffs(twin, traced, tracer)


def test_rcv1_generator_shape_and_round_trip():
    # large enough that the column-popularity slope has columns to fit
    shape = rcv1gen.Rcv1Shape(n=3000, d=3000, mean_nnz=20.0)
    text = rcv1gen.generate_text(5, shape)
    assert text == rcv1gen.generate_text(5, shape)
    assert text != rcv1gen.generate_text(6, shape)
    ds = parse_libsvm(text, d=shape.d)
    assert write_libsvm(ds) == text
    stats = rcv1gen.realized_stats(ds, text)
    assert rcv1gen.shape_problems(stats, shape) == []
    assert all(np.all(r.values > 0) for r in ds.rows)
    assert all(abs(r.sq_norm() - 1.0) < 1e-12 for r in ds.rows)
    wrong = dataclasses.replace(stats, mean_nnz=60.0, positive_share=0.8,
                                zipf_slope=-0.5)
    assert len(rcv1gen.shape_problems(wrong, shape)) == 3


def test_every_workload_is_pinned():
    pins = json.loads((HERE / "pins.json").read_text())
    assert set(pins) == set(WORKLOADS)
    assert all(pins[name] for name in WORKLOADS)
