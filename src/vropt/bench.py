"""Benchmark harness: declarative experiment specs, optimizer grids, traces
recorded against effective passes (cumulative IFO / n), CSV + SVG emission,
and the subsampling study comparing n-dependent and n-independent step sizes.

CSV layout (schema ``trace-v1``): one file per (optimizer label, seed), a
schema comment line, a header row, then one row per recorded pass.  Files are
byte-reproducible for a fixed spec; timing goes to a separate metadata file.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as data_mod
from .errors import ConfigError, DivergenceError
from .model import LogisticModel, NonconvexLogisticModel
from .optim import OptimizerConfig, Trace, engine, inner_step, run
from .planner import eta_max_nonconvex, plan_step_size

CSV_SCHEMA = "trace-v1"
CSV_COLUMNS = ("algorithm", "seed", "effective_pass", "ifo", "subopt",
               "grad_sq_norm")
DATA_DIR_ENV = "VROPT_DATA_DIR"
LIBSVM_URL = ("https://www.csie.ntu.edu.tw/~cjlin/libsvmtools/datasets/"
              "binary.html")


@dataclass(frozen=True)
class DatasetSpec:
    """Either a LIBSVM file reference or a synthetic recipe."""
    path: str | None = None
    name: str = "dataset"
    d: int | None = None
    synthetic: data_mod.SyntheticSpec | None = None

    def load(self) -> data_mod.Dataset:
        if self.synthetic is not None:
            return data_mod.generate_synthetic(self.synthetic)
        if self.path is None:
            raise ConfigError("dataset spec needs a path or a synthetic recipe")
        path = Path(self.path)
        if not path.is_absolute():
            base = os.environ.get(DATA_DIR_ENV)
            if base and (Path(base) / path).exists():
                path = Path(base) / path
        if not path.exists():
            raise ConfigError(
                f"dataset file {path} not found; download {self.name!r} from "
                f"{LIBSVM_URL} and place it there, or set ${DATA_DIR_ENV} to "
                f"the directory holding it"
            )
        with open(path, "r") as fh:
            return data_mod.parse_libsvm(fh, d=self.d, name=self.name)


@dataclass(frozen=True)
class LossSpec:
    kind: str = "logistic"          # logistic | nonconvex-logistic
    lam: float = 0.0
    alpha: float = 1.0

    def build(self, dataset):
        if self.kind == "logistic":
            return LogisticModel(dataset, lam=self.lam)
        if self.kind == "nonconvex-logistic":
            return NonconvexLogisticModel(dataset, alpha=self.alpha)
        raise ConfigError(f"unknown loss kind {self.kind!r}")


@dataclass(frozen=True)
class OptimizerSetup:
    """One grid cell template: the step size may be absolute, relative to
    L or L_bar, or planned from a regime certificate."""
    algorithm: str
    label: str
    eta: float | None = None
    eta_over_L: float | None = None
    eta_over_Lbar: float | None = None
    regime: str | None = None
    m_rule: str = "n"               # integer literal, "n", or "sqrt_n"

    def resolve_m(self, n: int) -> int:
        rule = self.m_rule
        if rule == "n":
            return n
        if rule == "sqrt_n":
            return max(1, math.isqrt(n - 1) + 1)  # ceil(sqrt(n))
        return int(rule)

    def resolve_eta(self, model, m: int) -> float:
        """The step size; a set value that gives no positive and finite step
        is a ConfigError naming the label and the field."""
        scales = {"eta": 1.0, "eta_over_L": model.L,
                  "eta_over_Lbar": model.L_bar}
        picked = [k for k in (*scales, "regime") if getattr(self, k) is not None]
        if len(picked) != 1:
            raise ConfigError(
                f"{self.label}: set exactly one of eta / eta_over_L / "
                "eta_over_Lbar / regime"
            )
        if self.regime is not None:
            return plan_step_size(model, self.algorithm, self.regime, m).eta
        value = getattr(self, picked[0])
        eta = float(value) / scales[picked[0]]
        if not (eta > 0 and math.isfinite(eta)):
            raise ConfigError(f"{self.label}: {picked[0]}={value} gives the "
                              f"step {eta}, not positive and finite")
        return eta

    def build_config(self, model, passes: int, seed: int,
                     record_every_pass: float | None) -> OptimizerConfig:
        n = model.n
        m = self.resolve_m(n)
        eta = self.resolve_eta(model, m)
        budget = passes * n
        kwargs = dict(algorithm=self.algorithm, eta=eta, m=m, seed=seed,
                      record_every_pass=record_every_pass, max_ifo=budget)
        if self.algorithm in ("GD", "SGD", "L2S"):
            # GD: one step per pass; SGD, L2S: the IFO budget ends the run
            kwargs["T"] = passes if self.algorithm == "GD" else budget
        elif self.algorithm == "L2S-SC":
            # epoch lengths are random; let the IFO budget terminate the run
            kwargs["S"] = budget
        else:
            kwargs["S"] = budget // (n + 2 * m) + 2
        return OptimizerConfig(**kwargs)


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    dataset: DatasetSpec
    loss: LossSpec
    optimizers: tuple
    passes: int = 30
    seeds: tuple = (0,)
    record_every_pass: float = 1.0
    out_dir: str = "results"

    def validate(self):
        if not self.optimizers:
            raise ConfigError("experiment needs at least one optimizer")
        if not self.seeds:
            raise ConfigError("experiment needs at least one seed")
        if self.passes < 1:
            raise ConfigError("pass budget must be >= 1")
        if self.record_every_pass is None:
            raise ConfigError("record_every_pass must be a number: the "
                              "summary reads each run's trace")
        labels = [o.label for o in self.optimizers]
        if len(set(labels)) != len(labels):
            raise ConfigError("optimizer labels must be unique")


@dataclass
class CellResult:
    label: str
    algorithm: str
    seed: int
    wall_time: float
    trace: Trace | None         # None if the run diverged
    total_ifo: int
    inner_step: str             # "dense" or "sparse" (vropt.optim.inner_step)
    engine: str                 # "compiled" or "python" (vropt.optim.engine)


def _format_row(values) -> str:
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v)
                    for v in values)


def write_trace_csv(path, algorithm: str, seed: int, trace,
                    f_best: float) -> None:
    lines = [f"# schema: {CSV_SCHEMA}", ",".join(CSV_COLUMNS)]
    for k in range(len(trace)):
        lines.append(_format_row((
            algorithm, seed,
            float(trace.passes[k]), int(trace.ifo[k]),
            float(trace.objective[k] - f_best), float(trace.grad_sq[k]),
        )))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace_csv(path):
    """Returns (schema, columns keyed by CSV_COLUMNS: the algorithm names as
    a list, the others as arrays).  A file that cannot be read, or is not a
    trace CSV with at least one row, is a ConfigError naming the file and,
    where there is one, the line."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError):
        raise ConfigError(f"cannot read trace CSV {path}") from None
    if not lines or not lines[0].startswith("# schema:"):
        raise ConfigError(f"{path}: missing schema header")
    schema = lines[0].split(":", 1)[1].strip()
    if lines[1:2] != [",".join(CSV_COLUMNS)]:
        raise ConfigError(f"{path}:2: header is not {','.join(CSV_COLUMNS)}")
    kinds = (str, np.int64, float, np.int64, float, float)  # by CSV_COLUMNS
    rows = []
    for no, line in enumerate(lines[2:], 3):
        try:
            if line:  # a field too many or too few fails the strict zip
                rows.append([kind(v) for kind, v in
                             zip(kinds, line.split(","), strict=True)])
        except (ValueError, OverflowError):
            raise ConfigError(f"{path}:{no}: malformed row {line!r}") from None
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    columns = list(zip(*rows))
    cols = {name: np.array(col) for name, col in zip(CSV_COLUMNS, columns)}
    cols["algorithm"] = list(columns[0])
    return schema, cols


def _cell(model, spec: ExperimentSpec, idx: int, seed: int) -> CellResult:
    """One grid cell: optimizer ``idx`` of the spec run with ``seed``."""
    setup = spec.optimizers[idx]
    config = setup.build_config(model, spec.passes, seed,
                                spec.record_every_pass)
    paths = (inner_step(model, config.algorithm),
             engine(model, config.algorithm))
    t0 = time.perf_counter()
    try:
        result = run(model, config)
    except DivergenceError:
        return CellResult(setup.label, setup.algorithm, seed,
                          time.perf_counter() - t0, None, 0, *paths)
    return CellResult(setup.label, setup.algorithm, seed,
                      time.perf_counter() - t0, result.trace,
                      result.total_ifo, result.inner_step, result.engine)


_worker = None  # (spec, model) of this pool worker, set by _load_worker


def _load_worker(spec: ExperimentSpec):
    global _worker
    _worker = spec, spec.loss.build(spec.dataset.load())


def _worker_cell(job):
    spec, model = _worker
    return _cell(model, spec, *job)


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> dict:
    """Run the optimizer grid and write one CSV per (label, seed), a summary
    (deterministic) and a metadata file (timing).  The dataset is loaded
    once, or once per worker process when ``workers > 1``."""
    spec.validate()
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    jobs = [(i, seed) for i in range(len(spec.optimizers)) for seed in spec.seeds]
    if workers > 1:
        # spawn, not fork: a forked child can inherit a held BLAS thread lock
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn"),
                                 initializer=_load_worker,
                                 initargs=(spec,)) as pool:
            cells = list(pool.map(_worker_cell, jobs))
    else:
        model = spec.loss.build(spec.dataset.load())
        cells = [_cell(model, spec, i, seed) for i, seed in jobs]

    # global best objective value anchors the suboptimality column
    f_best = math.inf
    for c in cells:
        if c.trace is not None and len(c.trace):
            f_best = min(f_best, float(c.trace.objective.min()))
    if not math.isfinite(f_best):
        f_best = 0.0

    for c in cells:
        if c.trace is not None:
            write_trace_csv(out / f"{c.label}_seed{c.seed}.csv", c.algorithm,
                            c.seed, c.trace, f_best)

    summary = _summarize(spec, cells, f_best)
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n")
    meta = {
        "generated_unix_time": time.time(),
        "wall_times": {f"{c.label}/seed{c.seed}": c.wall_time for c in cells},
        "inner_step": {f"{c.label}/seed{c.seed}": c.inner_step for c in cells},
        "engine": {f"{c.label}/seed{c.seed}": c.engine for c in cells},
    }
    (out / "metadata.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return summary


def _summarize(spec, cells, f_best) -> dict:
    per_label = {}
    for c in cells:
        per_label.setdefault(c.label, []).append(c)
    labels = {}
    for label, group in sorted(per_label.items()):
        final = [float(c.trace.grad_sq[-1])
                 if c.trace is not None and len(c.trace) else math.inf
                 for c in group]
        finite = [g for c, g in zip(group, final) if c.trace is not None]
        labels[label] = {
            "algorithm": group[0].algorithm,
            "seeds": [c.seed for c in group],
            "diverged_seeds": [c.seed for c in group if c.trace is None],
            "final_grad_sq_per_seed": final,
            "mean_final_grad_sq": (float(np.mean(finite)) if finite
                                   else math.inf),
            "ifo_total_per_seed": [c.total_ifo for c in group],
        }
    by_algorithm = {}
    for label, info in labels.items():
        by_algorithm.setdefault(info["algorithm"], []).append(
            (info["mean_final_grad_sq"], label))
    best = {algo: min(entries)[1] for algo, entries in by_algorithm.items()}
    return {
        "experiment": spec.name,
        "f_best": f_best,
        "pass_budget": spec.passes,
        "labels": labels,
        "best_label_per_algorithm": best,
        "any_diverged": any(c.trace is None for c in cells),
        "csv_schema": CSV_SCHEMA,
    }


def emit_plot(trace_paths, out_path, style: str = "grad",
              title: str = "") -> str:
    """Render trace CSVs into one standalone SVG (log-scale y against
    effective passes).  style: 'grad' plots ||grad F||^2, 'subopt' plots
    F - F_best.  Returns the output path."""
    from .svgplot import render_line_plot

    if style not in ("grad", "subopt"):
        raise ConfigError(f"unknown plot style {style!r}")
    series = []
    for path in trace_paths:
        _, cols = read_trace_csv(path)
        ys = cols["grad_sq_norm"] if style == "grad" else cols["subopt"]
        label = f"{cols['algorithm'][0]} (seed {cols['seed'][0]})"
        series.append((label, cols["effective_pass"], ys))
    ylabel = "||grad F(x)||^2" if style == "grad" else "F(x) - F_best"
    svg = render_line_plot(series, xlabel="effective passes (IFO / n)",
                           ylabel=ylabel, title=title)
    Path(out_path).write_text(svg)
    return str(out_path)


# ---------------------------------------------------------------------------
# n-dependent vs n-independent step-size study on subsampled data
# ---------------------------------------------------------------------------

def subsample_study(dataset, n_values=(10, 100, 1000), passes: int = 30,
                    seed: int = 0, out_path: str | None = None) -> list[dict]:
    """For each subsample size run the loopless optimizer twice: once with the
    n-independent step 0.5/L, once with the n-dependent step at the quadratic
    maximum ~ 1/(L sqrt(m)); record the final squared gradient norms."""
    if not n_values:
        raise ConfigError("[study] n_values: needs at least one subsample "
                          "size")
    rows = []
    for n_sub in n_values:
        sub = data_mod.subsample(dataset, n_sub, seed=seed)
        model = LogisticModel(sub, lam=0.0)
        m = n_sub
        for tag, eta in (
            ("n-independent", 0.5 / model.L),
            ("n-dependent", eta_max_nonconvex(m, model.L)),
        ):
            budget = passes * model.n
            config = OptimizerConfig(
                algorithm="L2S", eta=eta, m=m, T=budget, seed=seed,
                record_every_pass=None, max_ifo=budget,
            )
            result = run(model, config)
            g = model.full_gradient(result.x_out)
            rows.append({
                "n_sub": n_sub, "config": tag, "eta": eta, "m": m,
                "final_grad_sq": float(g @ g),
                "total_ifo": result.total_ifo,
            })
    if out_path is not None:
        lines = [f"# schema: subsample-study-v1",
                 "n_sub,config,eta,m,final_grad_sq,total_ifo"]
        for r in rows:
            lines.append(_format_row((r["n_sub"], r["config"], r["eta"],
                                      r["m"], r["final_grad_sq"],
                                      r["total_ifo"])))
        Path(out_path).write_text("\n".join(lines) + "\n")
    return rows
