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
from .optim import OptimizerConfig, eta_max_nonconvex, plan_step_size, run

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
        picks = [v is not None for v in
                 (self.eta, self.eta_over_L, self.eta_over_Lbar, self.regime)]
        if sum(picks) != 1:
            raise ConfigError(
                f"{self.label}: set exactly one of eta / eta_over_L / "
                "eta_over_Lbar / regime"
            )
        if self.eta is not None:
            return float(self.eta)
        if self.eta_over_L is not None:
            return float(self.eta_over_L) / model.L
        if self.eta_over_Lbar is not None:
            return float(self.eta_over_Lbar) / model.L_bar
        return plan_step_size(model, self.algorithm, self.regime, m).eta

    def build_config(self, model, passes: int, seed: int,
                     record_every_pass: float | None) -> OptimizerConfig:
        n = model.n
        m = self.resolve_m(n)
        eta = self.resolve_eta(model, m)
        budget = passes * n
        kwargs = dict(algorithm=self.algorithm, eta=eta, m=m, seed=seed,
                      record_every_pass=record_every_pass, max_ifo=budget)
        if self.algorithm in ("GD", "SGD", "L2S"):
            if self.algorithm == "GD":
                T = passes
            elif self.algorithm == "SGD":
                T = budget
            else:
                T = budget  # safe cap; the IFO budget stops the loop
            kwargs["T"] = T
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
    passes: int
    seeds: tuple = (0,)
    record_every_pass: float = 1.0
    out_dir: str = "results"

    def validate(self):
        if not self.optimizers:
            raise ConfigError("experiment needs at least one optimizer")
        if self.passes < 1:
            raise ConfigError("pass budget must be >= 1")
        labels = [o.label for o in self.optimizers]
        if len(set(labels)) != len(labels):
            raise ConfigError("optimizer labels must be unique")


@dataclass
class CellResult:
    label: str
    algorithm: str
    seed: int
    diverged: bool
    final_grad_sq: float
    final_subopt: float
    total_ifo: int
    wall_time: float
    csv_path: str


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
    """Returns (schema, list of column arrays keyed by CSV_COLUMNS)."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# schema:"):
        raise ConfigError(f"{path}: missing schema header")
    schema = lines[0].split(":", 1)[1].strip()
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:] if ln]
    cols = {}
    for j, name in enumerate(header):
        vals = [r[j] for r in rows]
        if name in ("algorithm",):
            cols[name] = vals
        elif name in ("seed", "ifo"):
            cols[name] = np.array([int(v) for v in vals], dtype=np.int64)
        else:
            cols[name] = np.array([float(v) for v in vals])
    return schema, cols


def _cell(model, spec: ExperimentSpec, idx: int, seed: int):
    """One grid cell: (idx, seed, wall seconds, trace or None if the run
    diverged, IFO total)."""
    config = spec.optimizers[idx].build_config(model, spec.passes, seed,
                                               spec.record_every_pass)
    t0 = time.perf_counter()
    try:
        result = run(model, config)
    except DivergenceError:
        return idx, seed, time.perf_counter() - t0, None, 0
    return idx, seed, time.perf_counter() - t0, result.trace, result.total_ifo


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
            raw = list(pool.map(_worker_cell, jobs))
    else:
        model = spec.loss.build(spec.dataset.load())
        raw = [_cell(model, spec, i, seed) for i, seed in jobs]

    # global best objective value anchors the suboptimality column
    f_best = math.inf
    for *_, trace, _ in raw:
        if trace is not None and len(trace):
            f_best = min(f_best, float(trace.objective.min()))
    if not math.isfinite(f_best):
        f_best = 0.0

    cells = []
    for idx, seed, wall, trace, total_ifo in raw:
        setup = spec.optimizers[idx]
        csv_path = out / f"{setup.label}_seed{seed}.csv"
        diverged = trace is None
        if not diverged:
            write_trace_csv(csv_path, setup.algorithm, seed, trace, f_best)
        ended = not diverged and len(trace) > 0
        fin_g = float(trace.grad_sq[-1]) if ended else math.inf
        fin_f = float(trace.objective[-1]) if ended else math.inf
        cells.append(CellResult(
            label=setup.label, algorithm=setup.algorithm, seed=seed,
            diverged=diverged,
            final_grad_sq=fin_g,
            final_subopt=(fin_f - f_best) if math.isfinite(fin_f) else math.inf,
            total_ifo=total_ifo, wall_time=wall,
            csv_path=str(csv_path) if not diverged else "",
        ))

    summary = _summarize(spec, cells, f_best)
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n")
    meta = {
        "generated_unix_time": time.time(),
        "wall_times": {f"{c.label}/seed{c.seed}": c.wall_time for c in cells},
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
        finite = [c.final_grad_sq for c in group if not c.diverged]
        labels[label] = {
            "algorithm": group[0].algorithm,
            "seeds": [c.seed for c in group],
            "diverged_seeds": [c.seed for c in group if c.diverged],
            "final_grad_sq_per_seed": [c.final_grad_sq for c in group],
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
        "any_diverged": any(c.diverged for c in cells),
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
                           ylabel=ylabel, title=title, log_y=True)
    Path(out_path).write_text(svg)
    return str(out_path)


# ---------------------------------------------------------------------------
# n-dependent vs n-independent step-size study on subsampled data
# ---------------------------------------------------------------------------

def subsample_study(dataset, n_values, passes: int = 30, seed: int = 0,
                    out_path: str | None = None, m_rule: str = "n") -> list[dict]:
    """For each subsample size run the loopless optimizer twice: once with the
    n-independent step 0.5/L, once with the n-dependent step at the quadratic
    maximum ~ 1/(L sqrt(m)); record the final squared gradient norms."""
    rows = []
    for n_sub in n_values:
        sub = data_mod.subsample(dataset, n_sub, seed=seed)
        model = LogisticModel(sub, lam=0.0)
        m = n_sub if m_rule == "n" else max(1, math.isqrt(n_sub - 1) + 1)
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
