"""The verdict of ``tools/pairs.py`` on fixed paired runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import pairs  # noqa: E402

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


@pytest.mark.parametrize("change, better, bound, want", [
    # 10 of 10 wins, gap 0.35 against a quartile spread of 0.035
    ([0.65] * 10, "lower", 0.25, "gain"),
    # 9 of 10 wins suffice; ties count for neither side
    ([0.65] * 9 + [PARENT[9]], "lower", 0.25, "gain"),
    ([0.65] * 8 + [PARENT[8], 2.0], "lower", 0.25, "within bound"),
    # all wins, but the gap (0.01) is inside the parent's spread
    ([v - 0.01 for v in PARENT], "lower", 0.25, "within bound"),
    # a higher-is-better metric read the other way
    ([v * 1.5 for v in PARENT], "higher", 0.25, "gain"),
    ([v * 1.5 for v in PARENT], "lower", 0.25, "worse"),
    ([v * 1.2 for v in PARENT], "lower", 0.25, "within bound"),
    ([v * 0.7 for v in PARENT], "higher", 0.25, "worse"),
    # the parent spreads wider than a 2 % bound
    ([v * 1.01 for v in PARENT], "lower", 0.02, "unresolved"),
    ([v * 0.99 for v in PARENT], "lower", 0.02, "unresolved"),
])
def test_verdict(change, better, bound, want):
    assert pairs.verdict(PARENT, change, better, bound) == want


def test_spread_wider_than_the_bound_resolved_by_clean_separation():
    """Every change run better than every parent run: not unresolved (and,
    from six pairs, no gain either)."""
    parent = [1.0, 1.5, 1.2, 1.4, 1.1, 1.3]
    change = [0.95, 0.9, 0.97, 0.96, 0.92, 0.93]
    assert pairs.verdict(parent, change, "lower", 0.1) == "within bound"
    assert pairs.verdict(parent, change[:5] + [1.6], "lower", 0.1) == (
        "unresolved")


def test_no_gain_from_fewer_than_ten_pairs():
    change = [0.65] * 9
    assert pairs.verdict(PARENT[:9], change, "lower", 0.25) == "within bound"


def test_quartiles_wins_and_seeds():
    assert pairs.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert pairs.wins([1, 2, 3], [0, 2, 4], "lower") == 1
    assert pairs.wins([1, 2, 3], [0, 2, 4], "higher") == 1
    assert pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
    with pytest.raises(ValueError):
        pairs.verdict([1.0], [1.0], "lower", 0.25)
