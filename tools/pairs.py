"""Alternating benchmark pairs of two commits, with a verdict per metric.

    python3 tools/pairs.py --parent REV [--change REV] --workload W[,W2...] \\
        --seeds 1-10 [--seconds S]

Each side is exported with ``git archive`` into a temporary directory, and
``vropt`` is imported there once, so that its kernel is built before any
run is timed.  Then, for each seed and, within it, each workload W,
``perfbench/run.py --workload W --seed s`` runs once per side, one process
at a time (``schedule``): the parent first for a workload's first seed,
the change first for its next, and so on, so that several workloads share
one session and each alternates on its own.  For each workload and each
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
quartiles, the median of the per-pair ratios change / parent, the change's
wins and the verdict of ``verdict``; next to ``peak_rss_mb``, each side's
median repetition count, since a run keeps every repetition's result and
its peak grows with them.  The temporary directories are removed; nothing
is written in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# each side imports vropt from its own tree only
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def quartiles(xs):
    """(first quartile, median, third quartile), inclusive method."""
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent, change, better: str) -> int:
    """The pairs in which the change reads better; ties count for neither."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def verdict(parent, change, better: str, bound: float) -> str:
    """The verdict on one metric from paired runs (``parent[k]`` and
    ``change[k]`` ran as pair k); ``better`` is "lower" or "higher" and
    ``bound`` the relative worsening the benchmark allows.

    - "gain": of ten or more pairs, the change wins at least nine tenths
      (ties count for neither side), and the medians differ, in its favour,
      by more than the parent's quartile spread;
    - "worse": the change's median is worse than the parent's by more than
      the bound;
    - "unresolved": the parent's quartile spread exceeds the bound (relative
      to its median), unless every change run reads better than every parent
      run;
    - "within bound" otherwise.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs of runs")
    sign = 1.0 if better == "lower" else -1.0
    q1, med_p, q3 = quartiles(parent)
    gap = sign * (med_p - statistics.median(change))  # > 0: change better
    if (len(parent) >= 10 and gap > q3 - q1
            and wins(parent, change, better) >= 0.9 * len(parent)):
        return "gain"
    if -gap > bound * abs(med_p):
        return "worse"
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if q3 - q1 > bound * abs(med_p) and not all_better:
        return "unresolved"
    return "within bound"


def parse_seeds(text: str) -> list:
    """"1-10" or "1,4,7" (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def schedule(workloads, seeds) -> list:
    """The runs in order, as (workload, seed, side): per seed, per workload,
    one pair, whose first side alternates over each workload's seeds and
    from one workload to the next."""
    runs = []
    for k, seed in enumerate(seeds):
        for j, workload in enumerate(workloads):
            sides = ("parent", "change")[::1 if (k + j) % 2 == 0 else -1]
            runs += [(workload, seed, side) for side in sides]
    return runs


def report(workload: str, seeds, results: dict, metrics, parent: str,
           change: str) -> None:
    """Print one workload's table from its paired ``results``."""
    print(f"{workload}: {len(seeds)} pairs, seeds {seeds}, "
          f"parent {parent}, change {change}")
    for side, runs in results.items():
        print(f"  {side} failed: {[r['failed'] for r in runs]}")
    print(f"  {'metric':12s} {'parent q1/median/q3':>34s} "
          f"{'change q1/median/q3':>34s} {'ratio':>7s} {'wins':>5s}  verdict")
    repetitions = "  (median repetitions: " + ", ".join(
        f"{side} {statistics.median(r['repetitions'] for r in runs):g}"
        for side, runs in results.items()) + ")"
    for m in metrics:
        name = m["name"]
        if not all(name in r["metrics"] for rs in results.values()
                   for r in rs):
            continue
        par = [r["metrics"][name]["value"] for r in results["parent"]]
        chg = [r["metrics"][name]["value"] for r in results["change"]]
        ratio = statistics.median(c / q for q, c in zip(par, chg) if q)
        qp, qc = quartiles(par), quartiles(chg)
        print(f"  {name:12s} {' / '.join(f'{v:.4g}' for v in qp):>34s} "
              f"{' / '.join(f'{v:.4g}' for v in qc):>34s} {ratio:7.3f} "
              f"{wins(par, chg, m['better']):2d}/{len(par):<2d}  "
              f"{verdict(par, chg, m['better'], m['bound'])}"
              + (repetitions if name == "peak_rss_mb" else ""))


def export(rev: str, into: Path) -> None:
    """The tree of ``rev`` written into ``into``, then its kernel built."""
    into.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"error: git archive {rev} failed")
    status = subprocess.run(
        [sys.executable, "-c", "import vropt._kernel as k; print(k.status)"],
        cwd=into, env={**ENV, "PYTHONPATH": str(into / "src")},
        capture_output=True, text=True, check=True).stdout.strip()
    print(f"{rev}: kernel {status}", file=sys.stderr)


def run_once(side: Path, workload: str, seed: int, seconds: float | None,
             out: Path) -> dict:
    """One ``perfbench/run.py`` process in ``side``: its last output line,
    with the repetition count of its result file added."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=side, env=ENV, capture_output=True,
                          text=True)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise SystemExit(f"error: {' '.join(cmd)} in {side} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    got["repetitions"] = json.loads(out.read_text())["repetitions"]
    return got


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", default="HEAD")
    p.add_argument("--workload", required=True,
                   type=lambda text: text.split(","),
                   help="a workload, or several separated by commas")
    p.add_argument("--seeds", type=parse_seeds, required=True)
    p.add_argument("--seconds", type=float, default=None)
    args = p.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    results = {w: {"parent": [], "change": []} for w in args.workload}
    with tempfile.TemporaryDirectory(prefix="vropt-pairs-") as tmp:
        sides = {name: Path(tmp) / name for name in ("parent", "change")}
        export(args.parent, sides["parent"])
        export(args.change, sides["change"])
        for workload, seed, name in schedule(args.workload, args.seeds):
            got = run_once(sides[name], workload, seed, args.seconds,
                           Path(tmp) / "result.json")
            results[workload][name].append(got)
            print(f"{workload} seed {seed} {name}: failed {got['failed']} of "
                  f"{got['attempted']}, repetitions {got['repetitions']}, "
                  + " ".join(f"{m}={v['value']:.6g}"
                             for m, v in got["metrics"].items()),
                  file=sys.stderr)

    for workload in args.workload:
        report(workload, args.seeds, results[workload], metrics, args.parent,
               args.change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
