import math

import numpy as np
import pytest

from vropt.errors import ConfigError, ContractError
from vropt.sampling import (
    ImportanceTable,
    Rng,
    build_importance_table,
    draw_snapshot_flag,
    draw_uniform_index,
    snapshot_event_probability,
)


class TestRng:
    def test_seed_stream_determinism(self):
        a = [Rng(123, 4).next_u64() for _ in range(64)]
        b = [Rng(123, 4).next_u64() for _ in range(64)]
        assert a == b

    def test_streams_differ(self):
        a = [Rng(123, 0).next_u64() for _ in range(8)]
        b = [Rng(123, 1).next_u64() for _ in range(8)]
        assert a != b

    def test_block_matches_scalar(self):
        r1, r2 = Rng(7, 2), Rng(7, 2)
        scalars = [r1.next_u64() for _ in range(100)]
        block = r2.u64_block(100)
        assert all(int(x) == y for x, y in zip(block, scalars))
        # continuation stays aligned after a block draw
        assert r2.next_u64() == r1.next_u64()

    def test_random_in_unit_interval(self):
        r = Rng(0)
        vals = r.random_block(1000)
        assert np.all(vals >= 0.0) and np.all(vals < 1.0)

    def test_below_block_deterministic(self):
        a = Rng(5, 1).below_block(13, 500)
        b = Rng(5, 1).below_block(13, 500)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 13

    @pytest.mark.parametrize("n", [13, 1, 2**63 + 5])  # the last rejects ~1/2
    def test_below_block_continues_like_scalar_draws(self, n):
        scalar, block = Rng(9, 4), Rng(9, 4)
        expected = [scalar.below(n) for _ in range(10)]
        assert block.below_block(n, 10).tolist() == expected
        assert block.next_u64() == scalar.next_u64()


class TestUniformIndex:
    def test_n1_always_zero(self):
        r = Rng(3)
        assert all(draw_uniform_index(r, 1) == 0 for _ in range(20))

    def test_zero_n_rejected(self):
        with pytest.raises(ContractError):
            draw_uniform_index(Rng(0), 0)

    def test_frequencies_within_4_sigma(self):
        # n=7, 7e5 draws: each frequency within 4 sigma of 1/7
        N = 700_000
        draws = Rng(42, 0).below_block(7, N)
        counts = np.bincount(draws, minlength=7)
        p = 1.0 / 7.0
        sigma = math.sqrt(p * (1 - p) / N)
        assert np.all(np.abs(counts / N - p) < 4 * sigma)

    def test_reproducible_sequence(self):
        r1, r2 = Rng(9, 0), Rng(9, 0)
        assert [draw_uniform_index(r1, 11) for _ in range(200)] == \
               [draw_uniform_index(r2, 11) for _ in range(200)]


class TestSnapshotFlag:
    def test_m1_always_snapshot(self):
        r = Rng(1)
        assert all(draw_snapshot_flag(r, 1) == 1 for _ in range(50))

    def test_m0_rejected(self):
        with pytest.raises(ContractError):
            draw_snapshot_flag(Rng(0), 0)

    def test_mean_within_4_sigma(self):
        N = 1_000_000
        flags = Rng(7, 1).below_block(4, N) == 0
        p = 0.25
        sigma = math.sqrt(p * (1 - p) / N)
        assert abs(flags.mean() - p) < 4 * sigma

    def test_geometric_gaps(self):
        # inter-snapshot gaps follow Geometric(1/m) with mean m
        from vropt.diagnostics import geometric_gap_chisquare

        m = 7
        flags = Rng(11, 1).below_block(m, 1_500_000) == 0
        pos = np.flatnonzero(flags)
        gaps = np.diff(pos)
        assert gaps.size > 100_000
        rep = geometric_gap_chisquare(gaps[:100_000], m, alpha=0.01)
        assert rep.passed, f"chi2={rep.statistic:.1f} > crit={rep.critical:.1f}"
        assert abs(gaps.mean() - m) < 0.1


class TestSnapshotEventProbability:
    def test_point_values(self):
        assert snapshot_event_probability(2, 3, 1) == pytest.approx(0.125, abs=1e-15)
        assert snapshot_event_probability(4, 3, 0) == pytest.approx(27 / 64, abs=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("t", [1, 4, 9])
    def test_total_mass_is_one(self, m, t):
        total = sum(snapshot_event_probability(m, t, t1) for t1 in range(t + 1))
        assert abs(total - 1.0) <= 1e-12

    def test_contract_violations(self):
        with pytest.raises(ContractError):
            snapshot_event_probability(2, 3, 4)   # t1 > t
        with pytest.raises(ContractError):
            snapshot_event_probability(0, 3, 1)   # m < 1


class TestImportanceTable:
    def test_homogeneous(self):
        table = build_importance_table([1.0, 1.0, 1.0, 1.0])
        assert np.allclose(table.p, 0.25, atol=1e-15)
        assert np.allclose(table.weights, 1.0, atol=1e-15)

    def test_two_weights(self):
        table = build_importance_table([1.0, 3.0])
        assert table.p == pytest.approx([0.25, 0.75], abs=1e-15)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        table = build_importance_table(rng.uniform(0.1, 5.0, size=37))
        assert abs(table.p.sum() - 1.0) <= 1e-12
        assert np.all(table.p > 0)

    def test_invalid_weights(self):
        with pytest.raises(ConfigError):
            build_importance_table([1.0, 0.0])
        with pytest.raises(ConfigError):
            build_importance_table([])

    def test_empirical_frequencies_match(self):
        # 1e6 draws against a lumpy distribution: per-bin 4 sigma
        weights = np.array([0.2, 1.0, 3.0, 0.5, 2.0, 9.0])
        table = build_importance_table(weights)
        rng = Rng(2024, 0)
        N = 1_000_000
        draws = table.draw_block(rng, N)
        counts = np.bincount(draws, minlength=6)
        freqs = counts / N
        sigma = np.sqrt(table.p * (1 - table.p) / N)
        assert np.all(np.abs(freqs - table.p) < 4 * sigma)

    def test_uniform_table_consumes_like_uniform_draws(self):
        # with exactly uniform p the accept coin is never needed, so the draw
        # sequence coincides with plain uniform index sampling
        table = build_importance_table(np.full(16, 2.25))
        r1, r2 = Rng(77, 0), Rng(77, 0)
        a = [table.draw(r1) for _ in range(500)]
        b = [draw_uniform_index(r2, 16) for _ in range(500)]
        assert a == b
