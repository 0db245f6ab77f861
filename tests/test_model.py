import math
import warnings

import numpy as np
import pytest

from vropt.data import Dataset, parse_libsvm
from vropt.errors import ConfigError, ContractError, NumericError
from vropt.model import (
    IfoCounter,
    LogisticModel,
    NonconvexLogisticModel,
)
from vropt.sampling import Rng


def single_row_dataset(values, label=1.0, d=None, lam_d=None):
    vals = np.asarray(values, dtype=np.float64)
    idx = np.flatnonzero(vals)
    return Dataset([0, idx.size], idx, vals[idx], [label], d=d or len(vals))


class TestSparseRow:
    """The contract of one row, which Dataset checks for all rows at once."""

    def test_rejects_unsorted(self):
        with pytest.raises(ContractError):
            Dataset([0, 2], [3, 1], [1.0, 2.0], [1.0], d=4)

    def test_rejects_zero_values(self):
        with pytest.raises(ContractError):
            Dataset([0, 2], [0, 1], [1.0, 0.0], [1.0], d=2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractError):
            Dataset([0, 1], [0], [np.inf], [1.0], d=1)


class TestComponentGradient:
    def test_sigmoid_symmetry_at_zero(self):
        # a=(2), b=+1, x=0: gradient is -b*a*sigma(0) = (-1.0)
        model = LogisticModel(single_row_dataset([2.0]), lam=0.0)
        g = model.component_gradient(0, np.zeros(1))
        assert g[0] == pytest.approx(-1.0, abs=0)

    def test_zero_feature_row_gives_lam_x(self):
        ds = Dataset([0, 0], [], [], [1.0], d=4)
        model = LogisticModel(ds, lam=0.5)
        x = np.array([1.0, -2.0, 0.25, 3.0])
        assert np.array_equal(model.component_gradient(0, x), 0.5 * x)

    def test_binary_row_matches_finite_differences(self):
        # an a9a-style binary row (14 active features) at lam = 0.0005
        idx = np.array([4, 6, 13, 18, 38, 39, 50, 62, 66, 72, 73, 75, 77, 82],
                       dtype=np.int64)
        model = LogisticModel(Dataset([0, 14], idx, np.ones(14), [-1.0], d=123),
                              lam=0.0005)
        x = np.zeros(123)
        g = model.component_gradient(0, x)
        for j in list(idx[:4]) + [0]:
            h = 1e-6 * (1.0 + abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (model.component_value(0, xp) - model.component_value(0, xm)) / (2 * h)
            assert abs(fd - g[j]) / max(1.0, abs(g[j])) < 1e-6

    def test_counts_one_ifo(self, convex_model):
        c = IfoCounter()
        convex_model.component_gradient(3, np.zeros(convex_model.d), c)
        assert c.count == 1

    def test_index_out_of_range(self, convex_model):
        with pytest.raises(ContractError):
            convex_model.component_gradient(convex_model.n, np.zeros(convex_model.d))

    def test_nonfinite_x_rejected(self, convex_model):
        x = np.zeros(convex_model.d)
        x[0] = np.nan
        with pytest.raises(NumericError):
            convex_model.component_gradient(0, x)
        with pytest.raises(NumericError):
            convex_model.objective(x)

    def test_overflowing_x_rejected_by_name(self, convex_model):
        """A finite x whose x.x overflows is refused as too large, not as
        non-finite, and the overflow raises no RuntimeWarning."""
        x = np.full(convex_model.d, 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for oracle in (convex_model.objective, convex_model.full_gradient,
                           lambda x: convex_model.component_gradient(0, x)):
                with pytest.raises(NumericError, match="x.x overflows"):
                    oracle(x)


    @pytest.mark.parametrize("shape", [(4,), (6,), (1, 5), ()])
    def test_wrong_shape_x_rejected(self, convex_model, shape):
        assert convex_model.d == 5
        x = np.zeros(shape)
        with pytest.raises(ContractError):
            convex_model.component_gradient(0, x)
        with pytest.raises(ContractError):
            convex_model.full_gradient(x)
        with pytest.raises(ContractError):
            convex_model.objective(x)


class TestFullGradient:
    def test_n1_identical_to_component(self):
        model = LogisticModel(single_row_dataset([2.0, -1.0, 0.5]), lam=0.3)
        x = np.array([0.2, -0.4, 1.0])
        assert np.array_equal(model.full_gradient(x),
                              model.component_gradient(0, x))

    def test_equal_rows_match_component(self):
        ds = Dataset([0, 2, 4, 6], [0, 2] * 3, [1.0, -2.0] * 3, [1.0] * 3, d=3)
        model = LogisticModel(ds, lam=0.0)
        x = np.array([0.5, 0.0, -0.25])
        g_full = model.full_gradient(x)
        g_comp = model.component_gradient(1, x)
        assert np.abs(g_full - g_comp).max() <= 1e-14 * max(1, np.abs(g_comp).max())

    def test_mean_of_components(self, sc_model):
        rng = Rng(5)
        x = np.array([2 * rng.random() - 1 for _ in range(sc_model.d)])
        g_full = sc_model.full_gradient(x)
        g_mean = np.mean([sc_model.component_gradient(i, x)
                          for i in range(sc_model.n)], axis=0)
        denom = max(1.0, float(np.abs(g_full).max()))
        assert np.abs(g_full - g_mean).max() / denom < 1e-15 * sc_model.n

    def test_counts_n_ifo(self, convex_model):
        c = IfoCounter()
        convex_model.full_gradient(np.zeros(convex_model.d), c)
        assert c.count == convex_model.n


class TestObjective:
    def test_value_at_origin_is_ln2(self, sc_model):
        assert sc_model.objective(np.zeros(sc_model.d)) == pytest.approx(
            math.log(2.0), abs=1e-15)

    def test_monotone_limit_to_zero(self):
        model = LogisticModel(single_row_dataset([1.0]), lam=0.0)
        vals = [model.objective(np.array([t])) for t in (0.0, 2.0, 8.0, 32.0, 128.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-50

    def test_matches_compensated_summation(self, sc_model):
        rng = Rng(17)
        x = np.array([2 * rng.random() - 1 for _ in range(sc_model.d)])
        direct = sc_model.objective(x)
        oracle = math.fsum(sc_model.component_value(i, x)
                           for i in range(sc_model.n)) / sc_model.n
        assert abs(direct - oracle) / abs(oracle) < 1e-12

    def test_large_margin_stability(self):
        model = LogisticModel(single_row_dataset([1.0], label=-1.0), lam=0.0)
        # -b<a,x> = +1e4: the loss is ~1e4, not inf
        val = model.objective(np.array([1e4]))
        assert math.isfinite(val) and val == pytest.approx(1e4, rel=1e-12)


class TestSmoothness:
    def test_single_row(self):
        model = LogisticModel(single_row_dataset([2.0, 0.0]), lam=0.0)
        assert model.L == pytest.approx(1.0, abs=0)  # ||a||^2/4 = 4/4

    def test_logistic_constants(self, tiny_dataset):
        lam = 0.05
        model = LogisticModel(tiny_dataset, lam=lam)
        sq = np.array([r.sq_norm() for r in tiny_dataset.rows])
        assert np.allclose(model.lipschitz, sq / 4 + lam, atol=0)
        assert model.L == model.lipschitz.max()
        assert model.L_bar == pytest.approx(model.lipschitz.mean(), rel=1e-15)
        assert model.mu == lam
        assert model.L >= model.L_bar >= 0
        assert model.mu <= model.L_bar

    def test_nonconvex_constants(self, tiny_dataset):
        alpha = 1.5
        model = NonconvexLogisticModel(tiny_dataset, alpha=alpha)
        sq = np.array([r.sq_norm() for r in tiny_dataset.rows])
        assert np.allclose(model.lipschitz, sq / 4 + 2 * alpha, atol=0)
        assert model.mu == 0.0
        assert model.convexity == "nonconvex"

    def test_model_wraps_the_dataset_arrays(self, tiny_dataset):
        model = LogisticModel(tiny_dataset, lam=0.0)
        for mine, theirs in ((model._A.indptr, tiny_dataset.indptr),
                             (model._A.indices, tiny_dataset.indices),
                             (model._A.data, tiny_dataset.values)):
            assert np.shares_memory(mine, theirs)

    def test_rows_and_text_give_bit_identical_oracles(self):
        arrays = Dataset([0, 2, 3, 6], [0, 3, 1, 0, 1, 4],
                         [1.5, -2.0, 0.25, 3.0, 1e-3, -7.5], [1.0, -1.0, 1.0],
                         d=5)
        text = "+1 1:1.5 4:-2.0\n-1 2:0.25\n+1 1:3.0 2:0.001 5:-7.5\n"
        a = LogisticModel(arrays, lam=0.01)
        b = LogisticModel(parse_libsvm(text), lam=0.01)
        x = np.array([0.3, -1.2, 0.7, 2.0, -0.4])
        assert np.array_equal(a.lipschitz, b.lipschitz)
        assert np.array_equal(a.full_gradient(x), b.full_gradient(x))
        assert a.objective(x) == b.objective(x)
        for i in range(3):
            assert np.array_equal(a.component_gradient(i, x),
                                  b.component_gradient(i, x))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            LogisticModel(Dataset([0], [], [], [], d=3), lam=0.0)

    @pytest.mark.parametrize("model,param,value", [
        (LogisticModel, "lam", -1.0), (LogisticModel, "lam", math.nan),
        (LogisticModel, "lam", math.inf),
        (NonconvexLogisticModel, "alpha", 0.0),
        (NonconvexLogisticModel, "alpha", math.nan),
        (NonconvexLogisticModel, "alpha", math.inf),
        (NonconvexLogisticModel, "alpha", -math.inf)])
    def test_regularizer_constant_rejected_by_name(self, tiny_dataset, model,
                                                   param, value):
        """NaN and +-inf fail the check too, which names the parameter
        (not the step size derived from it later)."""
        with pytest.raises(ConfigError, match=f"^{param} must be .* finite"):
            model(tiny_dataset, **{param: value})


def _random_pairs(model, count, seed):
    rng = Rng(seed)
    for _ in range(count):
        i = rng.below(model.n)
        x = np.array([2 * rng.random() - 1 for _ in range(model.d)])
        y = np.array([2 * rng.random() - 1 for _ in range(model.d)])
        yield i, x, y


class TestGradientProperties:
    @pytest.mark.parametrize("fixture", ["convex_model", "sc_model"])
    def test_cocoercivity(self, fixture, request):
        # <grad f_i(x) - grad f_i(y), x - y> >= ||grad f_i(x) - grad f_i(y)||^2 / L_i
        model = request.getfixturevalue(fixture)
        for i, x, y in _random_pairs(model, 200, seed=23):
            gx = model.component_gradient(i, x)
            gy = model.component_gradient(i, y)
            lhs = float((gx - gy) @ (x - y))
            rhs = float((gx - gy) @ (gx - gy)) / model.lipschitz[i]
            assert lhs >= rhs - 1e-12

    @pytest.mark.parametrize("fixture",
                             ["convex_model", "sc_model", "nonconvex_model"])
    def test_lipschitz_bound(self, fixture, request):
        model = request.getfixturevalue(fixture)
        for i, x, y in _random_pairs(model, 1000, seed=31):
            gx = model.component_gradient(i, x)
            gy = model.component_gradient(i, y)
            lhs = math.sqrt(float((gx - gy) @ (gx - gy)))
            rhs = model.lipschitz[i] * math.sqrt(float((x - y) @ (x - y)))
            assert lhs <= rhs * (1 + 1e-12)

    def test_objective_monotone_along_gd(self, convex_model):
        x = np.full(convex_model.d, 0.4)
        eta = 1.0 / convex_model.L
        prev = convex_model.objective(x)
        for _ in range(50):
            x = x - eta * convex_model.full_gradient(x)
            cur = convex_model.objective(x)
            assert cur <= prev + 1e-15 * max(1.0, abs(prev))
            prev = cur


class TestBatchHelpers:
    def test_full_gradient_batch_matches(self, sc_model):
        rng = Rng(3)
        X = np.array([[2 * rng.random() - 1 for _ in range(sc_model.d)]
                      for _ in range(7)])
        B = sc_model.full_gradient_batch(X)
        for r in range(7):
            assert np.allclose(B[r], sc_model.full_gradient(X[r]),
                               rtol=1e-13, atol=1e-15)

    def test_grad_sq_norms_matches(self, nonconvex_model):
        rng = Rng(4)
        X = np.array([[2 * rng.random() - 1 for _ in range(nonconvex_model.d)]
                      for _ in range(5)])
        norms = nonconvex_model.grad_sq_norms(X)
        for r in range(5):
            g = nonconvex_model.full_gradient(X[r])
            assert norms[r] == pytest.approx(float(g @ g), rel=1e-12)

    @pytest.mark.parametrize("fixture", ["sc_model", "nonconvex_model"])
    def test_batches_cross_block_boundaries(self, fixture, request):
        # 1100 rows: two full blocks of 512 and a ragged one of 76; the three
        # separate calls split the rows at other points
        model = request.getfixturevalue(fixture)
        rng = Rng(8)
        X = np.array([[2 * rng.random() - 1 for _ in range(model.d)]
                      for _ in range(1100)])
        B = model.full_gradient_batch(X)
        norms = model.grad_sq_norms(X)
        parts = (X[:367], X[367:734], X[734:])
        assert B.tobytes() == np.concatenate(
            [model.full_gradient_batch(P) for P in parts]).tobytes()
        assert norms.tobytes() == np.concatenate(
            [model.grad_sq_norms(P) for P in parts]).tobytes()
        for r in range(X.shape[0]):
            g = model.full_gradient(X[r])
            assert np.allclose(B[r], g, rtol=1e-13, atol=1e-15)
            assert norms[r] == pytest.approx(float(g @ g), rel=1e-12)

    def test_component_gradient_batch_matches(self, sc_model):
        rng = Rng(6)
        idx = np.array([rng.below(sc_model.n) for _ in range(9)])
        X = np.array([[2 * rng.random() - 1 for _ in range(sc_model.d)]
                      for _ in range(9)])
        B = sc_model.component_gradient_batch(idx, X)
        for r in range(9):
            assert np.allclose(B[r], sc_model.component_gradient(int(idx[r]), X[r]),
                               rtol=1e-13, atol=1e-15)
