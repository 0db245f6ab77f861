from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vropt import data as data_mod
from vropt.data import (
    Dataset,
    SparseRow,
    SyntheticSpec,
    generate_synthetic,
    parse_libsvm,
    subsample,
    write_libsvm,
)
from vropt.errors import ConfigError, ContractError, ParseError
from vropt.model import LogisticModel
from vropt.sampling import Rng

FIXTURES = Path(__file__).parent / "fixtures"


def datasets_equal(a, b):
    if a.d != b.d or a.n != b.n:
        return False
    for ra, rb in zip(a.rows, b.rows):
        if ra.label != rb.label:
            return False
        if not np.array_equal(ra.indices, rb.indices):
            return False
        if not np.array_equal(ra.values, rb.values):
            return False
    return True


class TestParseLibsvm:
    def test_basic_line(self):
        ds = parse_libsvm("+1 3:1.5 7:2.0\n")
        row = ds.rows[0]
        assert list(row.indices) == [2, 6]
        assert list(row.values) == [1.5, 2.0]
        assert row.label == 1.0
        assert ds.d == 7

    def test_blank_lines_skipped(self):
        ds = parse_libsvm("+1 1:1\n\n\n-1 2:2\n")
        assert ds.n == 2

    def test_declared_dimension_wins_when_larger(self):
        ds = parse_libsvm("+1 3:1.0\n", d=10)
        assert ds.d == 10
        assert parse_libsvm("+1 30:1.0\n", d=10).d == 30

    def test_label_conventions(self):
        zero_one = parse_libsvm("1 1:1\n0 2:1\n")
        assert [r.label for r in zero_one.rows] == [1.0, -1.0]
        one_two = parse_libsvm("1 1:1\n2 2:1\n")
        assert [r.label for r in one_two.rows] == [1.0, -1.0]
        pm = parse_libsvm("+1 1:1\n-1 2:1\n")
        assert [r.label for r in pm.rows] == [1.0, -1.0]

    def test_unsupported_labels_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("3 1:1\n")
        with pytest.raises(ParseError):
            parse_libsvm("-1 1:1\n0 2:1\n")  # mixes conventions

    def test_malformed_tokens_carry_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("+1 1:1\nnot_a_label 1:1\n")
        assert err.value.line_no == 2
        with pytest.raises(ParseError) as err:
            parse_libsvm("+1 1:abc\n")
        assert err.value.line_no == 1

    def test_non_increasing_indices_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("+1 5:1 5:2\n")  # duplicate
        with pytest.raises(ParseError):
            parse_libsvm("+1 5:1 3:2\n")  # decreasing

    def test_zero_values_dropped(self):
        ds = parse_libsvm("+1 2:0.0 3:1.0\n")
        assert list(ds.rows[0].indices) == [2]

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("\n\n")

    @pytest.mark.parametrize("block, chunk", [(None, None), (5, 3)])
    @pytest.mark.parametrize("text, line_no", [
        ("+1 1:1\nnot_a_label 1:1\n", 2),       # bad label
        ("+1 1:1\n\n-1 2:1 3\n", 3),            # bad feature token
        ("+1 1:1\r\n-1 2:1\r\n+1 0:1\r\n", 3),  # index < 1
        ("+1 1:1 4:1\n-1 5:1 5:2\n", 2),        # non-increasing index
        ("-1 1:1\n+1 2:1 3:nan\n", 2),          # non-finite value
        ("+1 2:1 1:1\n-1 x:1\n", 1),            # the first bad line wins
        ("3 1:1\n", None),                       # unsupported label set
        ("\n \n", None),                         # no data lines
    ])
    def test_malformed_input_names_its_line(self, monkeypatch, text, line_no,
                                            block, chunk):
        # small blocks and chunks split the text and its numbers the way a
        # large file is split
        if block is not None:
            monkeypatch.setattr(data_mod, "_BLOCK", block)
            monkeypatch.setattr(data_mod, "_CHUNK", chunk)
        with pytest.raises(ParseError) as err:
            parse_libsvm(text)
        assert err.value.line_no == line_no

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(
               st.booleans(),
               st.dictionaries(st.integers(1, 40),
                               st.one_of(st.just(0.0), st.floats(
                                   allow_nan=False, allow_infinity=False)),
                               max_size=6)),
           min_size=1, max_size=8),
           convention=st.sampled_from([("+1", "-1"), ("1", "0"), ("1", "2")]),
           small_blocks=st.booleans())
    def test_random_rows_round_trip(self, rows, convention, small_blocks):
        def line(positive, feats, labels):
            return " ".join([labels[0] if positive else labels[1]]
                            + [f"{k}:{v!r}" for k, v in sorted(feats.items())])
        text = "".join(line(p, f, convention) + "\n" for p, f in rows)
        written = "".join(
            line(p, {k: v for k, v in f.items() if v != 0.0}, ("+1", "-1"))
            + "\n" for p, f in rows)
        block = 7 if small_blocks else data_mod._BLOCK
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_mod, "_BLOCK", block)
            ds = parse_libsvm(text)
        assert write_libsvm(ds) == written
        assert datasets_equal(parse_libsvm(written, d=ds.d), ds)

    @pytest.mark.parametrize("name",
                             ["tiny_pm1.libsvm", "tiny_01.libsvm",
                              "tiny_12.libsvm"])
    def test_fixture_round_trip(self, name):
        text = (FIXTURES / name).read_text()
        ds = parse_libsvm(text, name=name)
        again = parse_libsvm(write_libsvm(ds), d=ds.d, name=name)
        assert datasets_equal(ds, again)

    def test_fixture_parses_into_model(self):
        ds = parse_libsvm((FIXTURES / "tiny_pm1.libsvm").read_text())
        model = LogisticModel(ds, lam=0.01)
        assert model.n == 4 and model.d == 8


class TestSubsample:
    def test_full_sample_is_identity(self, tiny_dataset):
        sub = subsample(tiny_dataset, tiny_dataset.n, seed=99)
        assert datasets_equal(sub, tiny_dataset)

    def test_deterministic_under_seed(self, tiny_dataset):
        a = subsample(tiny_dataset, 7, seed=5)
        b = subsample(tiny_dataset, 7, seed=5)
        assert datasets_equal(a, b)

    def test_out_of_range_rejected(self, tiny_dataset):
        with pytest.raises(ConfigError):
            subsample(tiny_dataset, tiny_dataset.n + 1, seed=0)
        with pytest.raises(ConfigError):
            subsample(tiny_dataset, 0, seed=0)

    def test_row_order_follows_the_draw(self, tiny_dataset):
        # reference: the partial Fisher-Yates shuffle over a Python list
        rng, pool = Rng(5, stream=20), list(range(tiny_dataset.n))
        for i in range(7):
            j = i + rng.below(tiny_dataset.n - i)
            pool[i], pool[j] = pool[j], pool[i]
        rows = tiny_dataset.rows
        expected = Dataset(rows=[rows[i] for i in pool[:7]], d=tiny_dataset.d)
        assert datasets_equal(subsample(tiny_dataset, 7, seed=5), expected)

    def test_seeds_give_different_index_sets(self):
        ds = generate_synthetic(SyntheticSpec(n=100, d=3, seed=0))
        differing = 0
        for s in range(100):
            a = subsample(ds, 10, seed=2 * s)
            b = subsample(ds, 10, seed=2 * s + 1)
            keys_a = {tuple(r.values) for r in a.rows}
            keys_b = {tuple(r.values) for r in b.rows}
            differing += keys_a != keys_b
        assert differing >= 99


class TestDataset:
    VALID = dict(indptr=[0, 2, 2, 3], indices=[0, 3, 1],
                 values=[1.0, -2.0, 0.5], y=[1.0, -1.0, 1.0])

    def test_rows_view_the_arrays(self):
        ds = Dataset(**self.VALID, d=4)
        assert ds.n == 3
        assert [r.label for r in ds.rows] == [1.0, -1.0, 1.0]
        assert [list(r.indices) for r in ds.rows] == [[0, 3], [], [1]]
        assert all(np.shares_memory(r.values, ds.values)
                   for r in ds.rows if r.values.size)
        again = Dataset(rows=ds.rows, d=4)
        assert datasets_equal(again, ds)

    def test_arrays_are_read_only(self):
        ds = Dataset(**self.VALID, d=4)
        with pytest.raises(ValueError):
            ds.values[0] = 3.0

    @pytest.mark.parametrize("field, value, error", [
        ("indices", [3, 0, 1], ContractError),     # decreasing within a row
        ("indices", [0, 3, -1], ContractError),
        ("values", [1.0, 0.0, 0.5], ContractError),
        ("values", [1.0, np.inf, 0.5], ContractError),
        ("indptr", [0, 2, 1, 3], ContractError),
        ("indptr", [0, 2, 3], ContractError),      # one row short
        ("indices", [0, 3, 4], ConfigError),       # index >= d
        ("y", [1.0, 0.0, 1.0], ConfigError),
    ])
    def test_contract_checked_for_all_rows(self, field, value, error):
        with pytest.raises(error):
            Dataset(**{**self.VALID, field: value}, d=4)

    def test_sparse_row_enforces_the_same_contract(self):
        with pytest.raises(ContractError):
            SparseRow(indices=np.array([2, 2]), values=np.ones(2), label=1.0)


class TestGenerateSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(n=20, d=5, spread=3.0, noise_rate=0.2, seed=123)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert datasets_equal(a, b)

    def test_homogeneous_spread(self):
        ds = generate_synthetic(SyntheticSpec(n=30, d=4, spread=1.0, seed=1))
        model = LogisticModel(ds, lam=0.0)
        li = model.lipschitz
        assert (li.max() - li.min()) / li.mean() < 1e-12

    def test_spread_ten_gives_heavy_ratio(self):
        ds = generate_synthetic(SyntheticSpec(n=200, d=6, spread=10.0, seed=2))
        model = LogisticModel(ds, lam=0.0)
        assert model.L / model.L_bar >= 5.0

    def test_labels_are_pm_one(self):
        ds = generate_synthetic(
            SyntheticSpec(n=50, d=3, noise_rate=0.3, seed=9))
        assert set(r.label for r in ds.rows) <= {-1.0, 1.0}

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n=0, d=3)
        with pytest.raises(ConfigError):
            SyntheticSpec(n=3, d=3, spread=0.5)
        with pytest.raises(ConfigError):
            SyntheticSpec(n=3, d=3, noise_rate=0.7)
