"""Run every workload over several seeds and summarize, e.g. into a BENCH file.

    python3 perfbench/collect.py --seeds 0-9 --out perfbench/baseline/BENCH_0.json
    python3 perfbench/collect.py --seeds 0-9 --out perfbench/_work/BENCH_new.json \\
        --compare perfbench/baseline/BENCH_0.json

Each (workload, seed) is one ``run.py`` process, run one after another, for
``run.py``'s default measuring time unless ``--seconds`` is given.  For every
end-to-end metric the summary gives the median over seeds, the first and
third quartiles and the spread (quartile distance over median); a spread
above a third of the metric's bound in BENCHMARK.json is flagged.  With
``--compare`` it also gives each median's change against the other file's,
flagged where it is worse by more than the bound.  The traced run is made
once per workload, on the first seed.  Prints every metric with its unit and
exits 1 if any correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("l2s-dense", "sarah-sparse", "race-grid")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds, trace: int) -> dict:
    out = HERE / "_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", str(out)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                 f"{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads(out.read_text())
    return {"line": line, "env": full["env"], "seconds": full["seconds"],
            "checks_failed": [c["name"] for c in full["checks"] if not c["ok"]]}


def _summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def _worse_by(name: str, new: float, old: float) -> float:
    """Share by which ``new`` is worse than ``old`` (negative: better)."""
    change = (new - old) / old if old else 0.0
    return change if BOUNDS[name]["better"] == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="0-9", help="'0-9' or '1,5,7'")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run.py's)")
    p.add_argument("--out", default=None, help="summary JSON path")
    p.add_argument("--compare", default=None,
                   help="earlier summary JSON to compare medians with")
    args = p.parse_args(argv)
    seeds = _seeds(args.seeds)
    other = json.loads(Path(args.compare).read_text()) if args.compare else None

    bench = {"schema": "perfbench-bench-v1", "seeds": seeds, "seconds": None,
             "compared_with": args.compare, "workloads": {}}
    all_ok = True
    for workload in WORKLOADS:
        runs = [_run(workload, s, args.seconds, 0) for s in seeds]
        metrics, units = {}, {}
        for r in runs:
            for name, m in r["line"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        entry = {
            "env": runs[0]["env"],
            "attempted": sum(r["line"]["attempted"] for r in runs),
            "failed": sum(r["line"]["failed"] for r in runs),
            "failed_checks": sorted({c for r in runs for c in r["checks_failed"]}),
            "end_to_end": {name: {"unit": units[name], **_summary(v)}
                           for name, v in metrics.items()},
        }
        bench["seconds"] = runs[0]["seconds"]
        traced = _run(workload, seeds[0], args.seconds, 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = traced["line"]["metrics"]
        entry["attempted"] += traced["line"]["attempted"]
        entry["failed"] += traced["line"]["failed"]
        entry["failed_checks"] += traced["checks_failed"]
        bench["workloads"][workload] = entry
        all_ok &= entry["failed"] == 0

        print(f"{workload}: {len(seeds)} seeds, {entry['failed']} of "
              f"{entry['attempted']} checks and runs failed")
        for name, s in entry["end_to_end"].items():
            bound = BOUNDS[name]["bound"]
            line = (f"  {name:14s} median {s['median']:>14.6g} {s['unit']:6s} "
                    f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                    f"spread {s['spread']:.4f}")
            if s["spread"] > bound / 3:
                line += f" (above a third of bound {bound})"
            if other is not None:
                old = other["workloads"][workload]["end_to_end"][name]["median"]
                worse = _worse_by(name, s["median"], old)
                s["worse_than_compared"] = worse
                line += f"  vs compared median {old:.6g}: worse by {worse:+.4f}"
                if worse > bound:
                    line += " EXCEEDS BOUND"
            print(line)
        for name in entry["failed_checks"]:
            print(f"  FAILED {name}")
        for name, m in entry["per_layer"].items():
            print(f"  {name:30s} {m['value']:>14.6g} {m['unit']}")

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
