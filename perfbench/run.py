"""vropt benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload l2s-dense --seed 0 --seconds 25 --trace 0

Run from the repository root; ``collect.py`` runs every workload.  The
library is imported from ``src/`` next to this directory and nowhere else.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result (environment
record, every check, spans) goes to a JSON file under
``perfbench/_work/results/`` or to ``--out``.  See README.md.
"""

from __future__ import annotations

import os

# One thread for every BLAS the process may load; set before numpy imports.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

if not (SRC / "vropt" / "__init__.py").is_file():
    sys.exit(f"error: library sources not found at {SRC}/vropt; run from a "
             "checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import vropt  # noqa: E402
from vropt.sampling import STREAM_INDEX  # noqa: E402

if Path(vropt.__file__).resolve().parent != SRC / "vropt":
    sys.exit(f"error: imported vropt from {vropt.__file__}, not from {SRC}")

import checks as chk  # noqa: E402
from tracing import Tracer, rebound  # noqa: E402
from workloads import WORKLOADS, identity_diffs  # noqa: E402

PINS = HERE / "pins.json"
MIN_REPS = 3  # timed repetitions per run, at least; medians are reported
DEFAULT_SECONDS = 25.0  # BENCHMARK.json's run_seconds

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "us_per_step": "us",
    "ifo_per_s": "IFO/s",
    "peak_rss_mb": "MB",
    "ifo_total": "IFO",
}

PER_LAYER = {
    "optim.run_s": "s",
    "optim.self_s": "s",
    "optim.self_us_per_step": "us",
    "optim.steps": "count",
    "optim.snapshots": "count",
    "optim.record_s": "s",
    "model.component_gradient_us": "us",
    "model.component_calls": "count",
    "model.full_gradient_us": "us",
    "model.full_calls_metered": "count",
    "model.full_calls_unmetered": "count",
    "model.metered_frac": "fraction",
    "model.objective_us": "us",
    "model.objective_calls": "count",
    "model.grad_sq_norms_s": "s",
    "model.build_s": "s",
    "model.busy_s": "s",
    "sampling.draw_us": "us",
    "sampling.draws": "count",
    "data.parse_s": "s",
    "data.parse_mb_per_s": "MB/s",
    "data.rows": "count",
    "data.generate_s": "s",
    "bench.run_experiment_s": "s",
    "bench.csv_write_s": "s",
    "bench.cells": "count",
    "tracing.overhead_ratio": "ratio",
}


# -- environment record ------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over the library's sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "vropt").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return None


def env_record(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": _git_commit(),
        "src_digest": _src_digest(),
        "workload_seed": seed,
    }


# -- runs ----------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def _setups(wl, inputs, tracer: Tracer, repeats: int):
    times, state = [], None
    for _ in range(repeats):
        state = None  # drop the previous set-up first, as a fresh run would
        gc.collect()
        with tracer.span("setup") as span:
            state = wl.setup(inputs, tracer)
        times.append(span[4] - span[3])
    return state, times


def _canary(wl, checks: chk.Checks, workdir: Path) -> None:
    pinned = json.loads(PINS.read_text()).get(wl.name) if PINS.exists() else None
    chk.compare_pins(checks, f"{wl.name} canary", wl.canary(workdir), pinned)


def run_untraced(wl, seed: int, seconds: float, workdir: Path):
    tracer, checks = Tracer(), chk.Checks()
    inputs = wl.inputs(seed, tracer, workdir)
    state, setup_times = _setups(wl, inputs, tracer, wl.setup_repeats)
    reps, walls = [], []
    start = perf_counter()
    while True:
        gc.collect()  # start every repetition with the same heap
        with tracer.span("rep") as span:
            reps.append(wl.rep(state, tracer, hot=False))
        walls.append(span[4] - span[3])
        elapsed = perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + _median(walls) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.check(state, reps, checks)
    _canary(wl, checks, workdir)
    metrics = {
        "setup_s": _median(setup_times),
        "wall_s": _median(walls),
        "us_per_step": _median([r.run_s / r.steps * 1e6 for r in reps]),
        "ifo_per_s": _median([r.ifo / r.run_s for r in reps]),
        "peak_rss_mb": peak_rss_mb,
        "ifo_total": reps[0].ifo,
    }
    detail = {"setup_times_s": setup_times, "rep_walls_s": walls,
              "spans": tracer.span_records()}
    return metrics, checks, reps, detail


def layer_metrics(state, setup_tracer: Tracer, tr: Tracer, rep,
                  overhead: float) -> dict:
    """Per-layer metrics of one traced repetition."""
    def calls(key):
        return tr.count(key), tr.seconds(key)

    comp_n, comp_s = calls("model.component_gradient")
    met_n, met_s = calls("model.full_gradient.metered")
    unm_n, unm_s = calls("model.full_gradient.unmetered")
    obj_n, obj_s = calls("model.objective")
    draw_n, draw_s = calls("sampling.draw")
    run_s = tr.span_total("run")
    oracle_s = comp_s + met_s + unm_s + obj_s
    self_s = run_s - oracle_s - draw_s
    gsq_s = tr.span_total("trace-eval")
    parse_s = setup_tracer.span_total("parse")

    def per_call(seconds, count):
        return seconds / count * 1e6 if count else 0.0

    return {
        "optim.run_s": run_s,
        "optim.self_s": self_s,
        "optim.self_us_per_step": per_call(self_s, rep.steps),
        "optim.steps": rep.steps,
        "optim.snapshots": sum(r.snapshot_count for _, _, r in rep.runs),
        "optim.record_s": unm_s + obj_s,
        "model.component_gradient_us": per_call(comp_s, comp_n),
        "model.component_calls": comp_n,
        "model.full_gradient_us": per_call(met_s + unm_s, met_n + unm_n),
        "model.full_calls_metered": met_n,
        "model.full_calls_unmetered": unm_n,
        "model.metered_frac": met_n / (met_n + unm_n) if met_n + unm_n else 0.0,
        "model.objective_us": per_call(obj_s, obj_n),
        "model.objective_calls": obj_n,
        "model.grad_sq_norms_s": gsq_s,
        "model.build_s": setup_tracer.span_total("build"),
        "model.busy_s": oracle_s + gsq_s,
        "sampling.draw_us": per_call(draw_s, draw_n),
        "sampling.draws": draw_n,
        "data.parse_s": parse_s,
        "data.parse_mb_per_s": state.input_mb / parse_s if parse_s else 0.0,
        "data.rows": state.model.n,
        "data.generate_s": setup_tracer.span_total("generate"),
        "bench.run_experiment_s": tr.span_total("run_experiment"),
        "bench.csv_write_s": tr.span_total("write"),
        "bench.cells": tr.count("bench.cell"),
        "tracing.overhead_ratio": overhead,
    }


def run_traced(wl, seed: int, seconds: float, workdir: Path):
    """Untraced twin and traced repetition in pairs, for ``seconds``."""
    tracer, checks = Tracer(), chk.Checks()
    inputs = wl.inputs(seed, tracer, workdir)
    state, _ = _setups(wl, inputs, tracer, 1)
    pairs = []
    start = perf_counter()
    while True:
        gc.collect()
        with tracer.span("rep") as span:
            twin = wl.rep(state, tracer, hot=False)
        twin_wall = span[4] - span[3]
        hot = Tracer()
        gc.collect()
        with rebound(hot), hot.span("rep") as span:
            traced = wl.rep(state, hot, hot=True)
        pairs.append((twin, twin_wall, traced, span[4] - span[3], hot))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(pairs) > seconds:
            break
    twins = [p[0] for p in pairs]
    wl.check(state, twins, checks)
    _canary(wl, checks, workdir)
    n = state.model.n
    per_rep = []
    for k, (twin, twin_wall, traced, traced_wall, hot) in enumerate(pairs):
        diffs = identity_diffs(twin, traced, hot)
        checks.check(f"{wl.name}: traced repetition {k} matches its twin",
                     not diffs, "; ".join(diffs[:3]))
        comp = hot.count("model.component_gradient")
        metered = hot.count("model.full_gradient.metered")
        checks.check(f"{wl.name}: component calls + n * metered full calls "
                     f"== ifo_total (repetition {k})",
                     comp + n * metered == traced.ifo,
                     f"{comp} + {n} * {metered} vs {traced.ifo}")
        per_rep.append(layer_metrics(state, tracer, hot, traced,
                                     traced_wall / twin_wall))
    metrics = {name: _median([m[name] for m in per_rep]) for name in PER_LAYER}
    detail = {
        "twin_walls_s": [p[1] for p in pairs],
        "traced_walls_s": [p[3] for p in pairs],
        "index_draw_digests": [
            chk.digest([v for s, v in p[4].draws if s == STREAM_INDEX],
                       np.int64)
            for p in pairs],
        "spans": tracer.span_records(),
        "traced_spans": [p[4].span_records() for p in pairs],
    }
    return metrics, checks, twins + [p[2] for p in pairs], detail


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        runner = run_traced if args.trace else run_untraced
        metrics, checks, reps, detail = runner(wl, args.seed, args.seconds,
                                               workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    attempted = checks.attempted + sum(r.attempted for r in reps)
    failed = checks.failed + sum(r.diverged for r in reps)
    result = {
        "schema": "perfbench-result-v1",
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "finished_unix_time": time.time(),
        "env": env_record(args.seed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "fail_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "repetitions": len(reps),
        "checks": checks.records,
        **detail,
    }
    out = Path(args.out) if args.out else (
        WORK / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}")
    for name, unit in units.items():
        print(f"  {name:30s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'fail_ratio':30s} {failed / attempted:>16.6g} fraction  "
          f"({failed} of {attempted} checks and runs failed)")
    for rec in checks.failures():
        print(f"  FAILED {rec['name']}: {rec['detail']}")
    print(f"  result file: {out}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="measuring time per run (repetitions stop after it)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    p.add_argument("--out", default=None, help="result file path")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
