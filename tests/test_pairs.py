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


def test_schedule_alternates_within_each_workload():
    """Both sides of a (workload, seed) pair run back to back, and each
    workload's first side alternates over its seeds, for an odd and an
    even number of workloads."""
    for workloads in (["a", "b", "c"], ["a", "b"]):
        runs = pairs.schedule(workloads, [1, 2, 3, 4])
        assert len(runs) == 2 * 4 * len(workloads)
        for (w1, s1, x), (w2, s2, y) in zip(runs[::2], runs[1::2]):
            assert (w1, s1) == (w2, s2) and {x, y} == {"parent", "change"}
        for w in workloads:
            firsts = [side for w1, _, side in runs[::2] if w1 == w]
            assert firsts in (["parent", "change"] * 2,
                              ["change", "parent"] * 2)
    assert [r[:2] for r in pairs.schedule(["a", "b"], [7])[::2]] == [
        ("a", 7), ("b", 7)]


def test_main_reports_each_listed_workload(monkeypatch, capsys):
    """``--workload a,b`` runs both and prints one verdict table each,
    from that workload's runs only."""
    monkeypatch.setattr(pairs, "export", lambda rev, into: None)
    seen = []

    def run_once(side, workload, seed, seconds, out):
        seen.append((workload, seed, side.name))
        value = {"a": 1.0, "b": 4.0}[workload]
        if side.name == "change":
            value *= 0.5 if workload == "a" else 2.0
        return {"failed": 0, "attempted": 1, "repetitions": 3,
                "metrics": {"us_per_step": {"value": value + seed / 1e3}}}

    monkeypatch.setattr(pairs, "run_once", run_once)
    assert pairs.main(["--parent", "P", "--workload", "a,b",
                       "--seeds", "1-10"]) == 0
    assert seen == pairs.schedule(["a", "b"], list(range(1, 11)))
    out = capsys.readouterr().out
    tables = out.split("b: 10 pairs")
    assert len(tables) == 2 and tables[0].startswith("a: 10 pairs")
    assert "gain" in tables[0] and "worse" not in tables[0]
    assert "worse" in tables[1] and "gain" not in tables[1]
