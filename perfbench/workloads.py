"""The benchmark's workloads.

Each workload makes its inputs from the workload seed, sets up (data plus
model; timed as ``setup_s``), runs repetitions (timed as ``wall_s``), checks
its own outputs and runs a fixed-seed canary whose results are pinned in
``pins.json``.  Only the library's public modules are called.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vropt.cli
import vropt.optim
from vropt.bench import write_trace_csv
from vropt.data import SyntheticSpec, generate_synthetic, parse_libsvm, write_libsvm
from vropt.errors import DivergenceError
from vropt.model import LogisticModel
from vropt.optim import OptimizerConfig
from vropt.sampling import STREAM_INDEX, STREAM_SNAPSHOT

import checks as chk
import rcv1gen
from tracing import TracedModel, Tracer

HERE = Path(__file__).resolve().parent


@dataclass
class Rep:
    """One workload repetition after set-up."""
    run_s: float = 0.0     # time inside optimizer runs
    steps: int = 0         # RunResult.total_iterations, summed
    ifo: int = 0
    attempted: int = 0     # optimizer runs started
    diverged: int = 0
    runs: list = field(default_factory=list)   # (label, algorithm, RunResult)
    extra: dict = field(default_factory=dict)


@dataclass
class State:
    """What set-up produced: the model plus workload-specific inputs."""
    model: object
    seed: int
    input_mb: float = 0.0  # size of parsed text (0 for synthetic data)
    extra: dict = field(default_factory=dict)


def _run(tracer: Tracer, model, config):
    """One optimizer run inside a ``run`` span: (result or None, seconds)."""
    with tracer.span("run") as span:
        try:
            result = vropt.optim.run(model, config)
        except DivergenceError:
            result = None
    return result, span[4] - span[3]


def _add_run(rep: Rep, label: str, result, seconds: float) -> None:
    rep.run_s += seconds
    rep.attempted += 1
    if result is None:
        rep.diverged += 1
        return
    rep.runs.append((label, result.config.algorithm, result))
    rep.steps += result.total_iterations
    rep.ifo += result.total_ifo


def _check_repeats(checks: chk.Checks, name: str, reps: list) -> None:
    """Every repetition of one set-up gives bit-identical runs."""
    diffs = []
    for k, rep in enumerate(reps[1:], start=1):
        for (label, _, a), (_, _, b) in zip(reps[0].runs, rep.runs):
            diffs += [f"rep {k} {label}: {d}" for d in chk.same_run(a, b)]
    checks.check(f"{name}: repetitions are bit-identical", not diffs,
                 "; ".join(diffs[:3]))


def identity_diffs(twin: Rep, traced: Rep, tracer: Tracer) -> list:
    """Ways a traced repetition differs from its untraced twin."""
    diffs = []
    if len(twin.runs) != len(traced.runs):
        diffs.append(f"{len(twin.runs)} vs {len(traced.runs)} runs")
    for (label, _, a), (_, _, b) in zip(twin.runs, traced.runs):
        diffs += [f"{label}: {d}" for d in chk.same_run(a, b)]
    if twin.ifo != traced.ifo:
        diffs.append(f"ifo_total {twin.ifo} != {traced.ifo}")
    # where the run records its index and snapshot draws, the rebound
    # samplers must have seen exactly those sequences
    idx = [v for s, v in tracer.draws if s == STREAM_INDEX]
    snap = [v for s, v in tracer.draws if s == STREAM_SNAPSHOT]
    rec_idx = [r.indices for _, _, r in twin.runs]
    if rec_idx and all(i is not None for i in rec_idx):
        if not np.array_equal(np.concatenate(rec_idx), idx):
            diffs.append("index sequence differs")
    rec_b = [r.bernoulli for _, algo, r in twin.runs
             if algo in ("L2S", "L2S-SC")]
    if rec_b and len(rec_b) == len(twin.runs):
        if not np.array_equal(np.concatenate(rec_b), snap):
            diffs.append("snapshot sequence differs")
    for key in ("traj_mean", "files"):
        if twin.extra.get(key) != traced.extra.get(key):
            diffs.append(f"{key} differs")
    return diffs


class L2sDense:
    """Criterion-5 shape: L2S on a small dense problem, then the trajectory's
    squared gradient norms."""

    name = "l2s-dense"
    setup_repeats = 11
    runs_per_rep = 2
    n, d, m, T = 1024, 16, 32, 20_000

    def inputs(self, seed: int, tracer: Tracer, workdir: Path):
        return SyntheticSpec(n=self.n, d=self.d, spread=1.5, noise_rate=0.1,
                             seed=seed)

    def setup(self, spec, tracer: Tracer) -> State:
        with tracer.span("generate"):
            dataset = generate_synthetic(spec)
        with tracer.span("build"):
            model = LogisticModel(dataset, lam=0.0)
        return State(model=model, seed=spec.seed)

    def config(self, model, seed: int) -> OptimizerConfig:
        return OptimizerConfig("L2S", eta=0.5 / model.L, m=self.m, T=self.T,
                               seed=seed, record_every_pass=None,
                               record_iterates=True)

    def run_seeds(self, seed: int) -> list:
        return [self.runs_per_rep * seed + j for j in range(self.runs_per_rep)]

    def rep(self, state: State, tracer: Tracer, hot: bool) -> Rep:
        model = state.model
        oracle = TracedModel(model, tracer) if hot else model
        rep = Rep(extra={"traj_mean": []})
        for s in self.run_seeds(state.seed):
            result, secs = _run(tracer, oracle, self.config(model, s))
            _add_run(rep, f"L2S/seed{s}", result, secs)
            if result is None:
                continue
            with tracer.span("trace-eval"):
                gsq = model.grad_sq_norms(result.iterates[1:])
            rep.extra["traj_mean"].append(float(gsq.mean()))
            # the trajectory is consumed; free it and the snapshot records
            result.iterates = None
            result.snapshot_grads, result.snapshot_points = [], []
        return rep

    def check(self, state: State, reps: list, checks: chk.Checks) -> None:
        model = state.model
        for label, algo, result in reps[0].runs:
            chk.check_ifo_events(checks, label, algo, model.n, result)
            checks.check(f"{label}: one Bernoulli draw per step",
                         result.bernoulli.size == self.T
                         and result.snapshot_count
                         == 1 + int(result.bernoulli.sum()),
                         f"{result.bernoulli.size} draws, "
                         f"{result.snapshot_count} snapshots")
            chk.check_descent(checks, label, model, result.x_out)
        means = reps[0].extra["traj_mean"]
        checks.check(f"{self.name}: trajectory means finite",
                     means and all(np.isfinite(means)), repr(means))
        _check_repeats(checks, self.name, reps)

    def canary(self, workdir: Path) -> dict:
        state = self.setup(self.inputs(0, Tracer(), workdir), Tracer())
        model = state.model
        result = vropt.optim.run(model, self.config(model, 0))
        gsq = model.grad_sq_norms(result.iterates[1:])
        g = model.full_gradient(result.x_out)
        return {
            "ifo_total": result.total_ifo,
            "snapshots": result.snapshot_count,
            "indices_digest": chk.digest(result.indices, np.int64),
            "bernoulli_digest": chk.digest(result.bernoulli, np.uint8),
            "final_grad_sq": float(g @ g),
            "traj_mean": float(gsq.mean()),
        }


class SarahSparse:
    """rcv1 shape: LIBSVM text is parsed, the model built, and one SARAH
    outer loop with m = n runs on it."""

    name = "sarah-sparse"
    setup_repeats = 5
    lam = 1e-4
    canary_shape = rcv1gen.Rcv1Shape(n=1000, d=2000)

    def inputs(self, seed: int, tracer: Tracer, workdir: Path):
        with tracer.span("generate-input"):
            return seed, rcv1gen.generate_text(seed)

    def setup(self, inputs, tracer: Tracer) -> State:
        seed, text = inputs
        with tracer.span("parse"):
            dataset = parse_libsvm(text, d=rcv1gen.N_COLS, name="rcv1-shaped")
        with tracer.span("build"):
            model = LogisticModel(dataset, lam=self.lam)
        return State(model=model, seed=seed, input_mb=len(text) / 1e6,
                     extra={"text": text, "dataset": dataset})

    def config(self, model, seed: int, **kw) -> OptimizerConfig:
        return OptimizerConfig("SARAH", eta=0.5 / model.L, m=model.n, S=1,
                               seed=seed, record_every_pass=None, **kw)

    def rep(self, state: State, tracer: Tracer, hot: bool) -> Rep:
        model = state.model
        oracle = TracedModel(model, tracer) if hot else model
        rep = Rep()
        result, secs = _run(tracer, oracle, self.config(model, state.seed))
        _add_run(rep, f"SARAH/seed{state.seed}", result, secs)
        return rep

    def check(self, state: State, reps: list, checks: chk.Checks) -> None:
        model, text = state.model, state.extra["text"]
        dataset = state.extra["dataset"]
        problems = rcv1gen.shape_problems(rcv1gen.realized_stats(dataset, text))
        checks.check("rcv1 generator: realized shape", not problems,
                     "; ".join(problems))
        checks.check("rcv1 generator: write_libsvm(parse_libsvm(text)) == text",
                     write_libsvm(dataset) == text)
        for label, algo, result in reps[0].runs:
            n = model.n
            checks.check(f"{label}: IFO total is n + 2m",
                         result.total_ifo == n + 2 * n,
                         f"{result.total_ifo} vs {3 * n}")
            chk.check_ifo_events(checks, label, algo, n, result)
            chk.check_descent(checks, label, model, result.x_out)
        _check_repeats(checks, self.name, reps)

    def canary(self, workdir: Path) -> dict:
        text = rcv1gen.generate_text(0, self.canary_shape)
        dataset = parse_libsvm(text, d=self.canary_shape.d)
        model = LogisticModel(dataset, lam=self.lam)
        result = vropt.optim.run(model, self.config(model, 0,
                                                    record_iterates=True))
        g = model.full_gradient(result.x_out)
        return {
            "text_digest": chk.bytes_digest(text.encode()),
            "ifo_total": result.total_ifo,
            "snapshots": result.snapshot_count,
            "indices_digest": chk.digest(result.indices, np.int64),
            "final_grad_sq": float(g @ g),
            "objective": model.objective(result.x_out),
        }


class RaceGrid:
    """``vropt run demos/config/race.ini --workers 1`` in-process: five
    algorithms by two seeds with per-pass trace recording and CSV/summary
    output.  The CLI loads the dataset and builds the model again inside
    every repetition, so ``wall_s`` includes that set-up; ``setup_s`` times
    the same calls once more outside it."""

    name = "race-grid"
    setup_repeats = 11
    config_path = HERE.parent / "demos" / "config" / "race.ini"

    def write_config(self, seed: int, path: Path) -> Path:
        """The demo's race.ini with the dataset seed and run seeds shifted by
        the workload seed; seed 0 leaves the file's values unchanged."""
        cp = configparser.ConfigParser()
        cp.read(self.config_path)
        cp["dataset"]["seed"] = str(cp["dataset"].getint("seed") + seed)
        base = [int(s) for s in cp["experiment"]["seeds"].split()]
        cp["experiment"]["seeds"] = " ".join(
            str(s + len(base) * seed) for s in base)
        with open(path, "w") as fh:
            cp.write(fh)
        return path

    def inputs(self, seed: int, tracer: Tracer, workdir: Path):
        return seed, self.write_config(seed, workdir / f"race-{seed}.ini")

    def setup(self, inputs, tracer: Tracer) -> State:
        seed, ini = inputs
        with tracer.span("spec"):
            spec = vropt.cli.load_experiment_spec(str(ini))
        with tracer.span("generate"):
            dataset = spec.dataset.load()
        with tracer.span("build"):
            model = spec.loss.build(dataset)
        return State(model=model, seed=seed,
                     extra={"ini": ini, "spec": spec, "out": ini.with_suffix("")})

    def _cli(self, ini: Path, out: Path):
        if out.exists():
            shutil.rmtree(out)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = vropt.cli.main(["run", str(ini), "--workers", "1",
                                 "--out", str(out)])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        return rc, files

    def rep(self, state: State, tracer: Tracer, hot: bool) -> Rep:
        spec = state.extra["spec"]
        rc, files = self._cli(state.extra["ini"], state.extra["out"])
        meta = json.loads(files.pop("metadata.json"))
        summary = json.loads(files["summary.json"])
        rep = Rep(extra={"rc": rc, "files": files, "summary": summary})
        rep.run_s = sum(meta["wall_times"].values())
        for info in summary["labels"].values():
            rep.ifo += sum(info["ifo_total_per_seed"])
            rep.diverged += len(info["diverged_seeds"])
            rep.attempted += len(info["seeds"])
        labels = [(o.label, seed) for o in spec.optimizers for seed in spec.seeds]
        # filled only while the traced run has vropt.bench.run rebound
        for (label, seed), result in zip(labels, tracer.results):
            rep.runs.append((f"{label}/seed{seed}", result.config.algorithm,
                             result))
            rep.steps += result.total_iterations
        return rep

    def replay(self, state: State, record_iterates: bool = False) -> list:
        """The grid's runs, repeated through ``vropt.optim.run`` with the
        configs the bench harness builds: (label, seed, RunResult)."""
        spec, model = state.extra["spec"], state.model
        out = []
        for setup in spec.optimizers:
            for seed in spec.seeds:
                config = setup.build_config(model, spec.passes, seed,
                                            spec.record_every_pass)
                if record_iterates:
                    config = dataclasses.replace(config, record_iterates=True)
                out.append((setup.label, seed, vropt.optim.run(model, config)))
        return out

    def check(self, state: State, reps: list, checks: chk.Checks) -> None:
        spec, model, n = state.extra["spec"], state.model, state.model.n
        first = reps[0].extra
        checks.check("race-grid: exit code 0",
                     all(r.extra["rc"] == 0 for r in reps),
                     repr([r.extra["rc"] for r in reps]))
        checks.check("race-grid: no diverged cell",
                     not first["summary"]["any_diverged"])
        checks.check("race-grid: repetitions write identical files",
                     all(r.extra["files"] == first["files"] for r in reps))
        f_best = first["summary"]["f_best"]
        replayed = self.replay(state)
        # the byte-identical CSVs below show that the replay reproduces the
        # grid's runs, so they stand in for the runs the CLI does not return
        runs = [(f"{label}/seed{seed}", r.config.algorithm, r)
                for label, seed, r in replayed]
        steps = sum(r.total_iterations for _, _, r in replayed)
        for rep in reps:
            rep.runs, rep.steps = runs, steps
        scratch = state.extra["out"].with_name("replay.csv")
        for label, seed, result in replayed:
            tag = f"{label}/seed{seed}"
            algo = result.config.algorithm
            csv_name = f"{label}_seed{seed}.csv"
            csv = first["files"].get(csv_name, b"")
            rows = csv.count(b"\n") - 2
            checks.check(f"{tag}: CSV has passes + 1 rows",
                         rows == spec.passes + 1, f"{rows} rows")
            info = first["summary"]["labels"][label]
            reported = info["ifo_total_per_seed"][info["seeds"].index(seed)]
            checks.check(f"{tag}: summary IFO equals the replayed run",
                         reported == result.total_ifo,
                         f"{reported} vs {result.total_ifo}")
            checks.check(f"{tag}: IFO within one snapshot past the budget",
                         spec.passes * n <= reported <= (spec.passes + 1) * n,
                         str(reported))
            chk.check_ifo_events(checks, tag, algo, n, result)
            write_trace_csv(scratch, algo, seed, result.trace, f_best)
            checks.check(f"{tag}: replayed trace CSV is byte-identical",
                         scratch.read_bytes() == csv)
            chk.check_descent(checks, tag, model, result.x_out)
        scratch.unlink()

    def canary(self, workdir: Path) -> dict:
        state = self.setup(self.inputs(0, Tracer(), workdir), Tracer())
        model = state.model
        pins = {}
        for label, seed, result in self.replay(state, record_iterates=True):
            g = model.full_gradient(result.x_out)
            tag = f"{label}/seed{seed}"
            pins[f"{tag} ifo_total"] = result.total_ifo
            pins[f"{tag} indices_digest"] = chk.digest(result.indices, np.int64)
            pins[f"{tag} snapshots_digest"] = chk.digest(result.snapshot_iters,
                                                         np.int64)
            pins[f"{tag} trace_grad_sq_sum"] = float(result.trace.grad_sq.sum())
            pins[f"{tag} trace_objective_sum"] = float(
                result.trace.objective.sum())
            pins[f"{tag} final_grad_sq"] = float(g @ g)
        return pins


WORKLOADS = {w.name: w for w in (L2sDense(), SarahSparse(), RaceGrid())}
