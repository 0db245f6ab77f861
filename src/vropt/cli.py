"""Command-line interface.

    vropt run CONFIG [--seed N] [--workers K] [--out DIR] [--strict]
    vropt plot CSV [CSV ...] --out FILE.svg [--style grad|subopt]
    vropt diag [--seed N] [--fast]
    vropt subsample-study CONFIG [--out FILE.csv]

Config files are INI key-value text (see README for the schema).  Exit codes:
0 success, 2 configuration/parse error, 3 diverged run under --strict.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

from . import bench
from .data import SyntheticSpec
from .diagnostics import (
    check_gradient_fd,
    compare_sampling_oracles,
    enumerate_snapshot_law,
    estimate_mse_bound,
)
from .errors import ConfigError, ParseError, VroptError
from .model import LogisticModel, NonconvexLogisticModel


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _read_config(path: str) -> configparser.ConfigParser:
    """The config file at ``path``, read once, its values literal (no
    ``%`` interpolation); a file configparser cannot read or decode is a
    ConfigError naming it."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return cp


def _value(sec, key: str, parse, fallback=None, required=False):
    """``parse(sec[key])``, or ``fallback`` when ``key`` is unset; a missing
    ``required`` key, or a value that ``parse`` rejects, is a ConfigError
    naming the section and key."""
    if key not in sec:
        if required:
            raise ConfigError(f"[{sec.name}] {key}: missing")
        return fallback
    try:
        return parse(sec[key])
    except ValueError:
        raise ConfigError(f"[{sec.name}] {key}: malformed value "
                          f"{sec[key]!r}") from None


def _parse_dataset(cp: configparser.ConfigParser) -> bench.DatasetSpec:
    if not cp.has_section("dataset"):
        raise ConfigError("config needs a [dataset] section")
    sec = cp["dataset"]
    if _value(sec, "synthetic", lambda _: sec.getboolean("synthetic"), False):
        return bench.DatasetSpec(synthetic=SyntheticSpec(
            n=_value(sec, "n", int, required=True),
            d=_value(sec, "d", int, required=True),
            spread=_value(sec, "spread", float, 1.0),
            noise_rate=_value(sec, "noise", float, 0.0),
            seed=_value(sec, "seed", int, 0),
        ))
    if "path" not in sec:
        raise ConfigError("[dataset] needs synthetic=true or a path")
    return bench.DatasetSpec(
        path=sec["path"],
        name=sec.get("name", fallback=Path(sec["path"]).name),
        d=_value(sec, "d", int),
    )


def _parse_loss(cp) -> bench.LossSpec:
    if not cp.has_section("loss"):
        return bench.LossSpec()
    sec = cp["loss"]
    return bench.LossSpec(
        kind=sec.get("kind", fallback="logistic"),
        lam=_value(sec, "lam", float, 0.0),
        alpha=_value(sec, "alpha", float, 1.0),
    )


def _parse_optimizers(cp) -> tuple:
    setups = []
    for section in cp.sections():
        if not section.startswith("optimizer"):
            continue
        sec = cp[section]
        label = sec.get("label", fallback=section.split(".", 1)[-1])
        m_rule = sec.get("m", fallback="n")
        if m_rule not in ("n", "sqrt_n"):
            _value(sec, "m", int)  # must then be an integer literal
        setups.append(bench.OptimizerSetup(
            algorithm=_value(sec, "algorithm", str, required=True),
            label=label,
            eta=_value(sec, "eta", float),
            eta_over_L=_value(sec, "eta_over_L", float),
            eta_over_Lbar=_value(sec, "eta_over_Lbar", float),
            regime=sec.get("regime", fallback=None),
            m_rule=m_rule,
        ))
    return tuple(setups)


def load_experiment_spec(path: str, seed_override: int | None = None,
                         out_override: str | None = None) -> bench.ExperimentSpec:
    cp = _read_config(path)
    if not cp.has_section("experiment"):
        raise ConfigError("config needs an [experiment] section")
    exp = cp["experiment"]
    seeds = tuple(_value(exp, "seeds", _ints, [0]))
    if seed_override is not None:
        seeds = (seed_override,)
    return bench.ExperimentSpec(
        name=exp.get("name", fallback=Path(path).stem),
        dataset=_parse_dataset(cp),
        loss=_parse_loss(cp),
        optimizers=_parse_optimizers(cp),
        passes=_value(exp, "passes", int, 30),
        seeds=seeds,
        record_every_pass=_value(exp, "record_every_pass", float, 1.0),
        out_dir=out_override or exp.get("out", fallback="results"),
    )


def _cmd_run(args) -> int:
    spec = load_experiment_spec(args.config, args.seed, args.out)
    summary = bench.run_experiment(spec, workers=args.workers)
    print(f"experiment {summary['experiment']!r}: "
          f"{len(summary['labels'])} optimizer(s), seeds per cell done")
    for label, info in summary["labels"].items():
        print(f"  {label:24s} mean final ||grad F||^2 = "
              f"{info['mean_final_grad_sq']:.3e}"
              + ("  [diverged seeds: %s]" % info["diverged_seeds"]
                 if info["diverged_seeds"] else ""))
    for algo, label in summary["best_label_per_algorithm"].items():
        print(f"  best {algo}: {label}")
    if summary["any_diverged"] and args.strict:
        return 3
    return 0


def _cmd_plot(args) -> int:
    bench.emit_plot(args.traces, args.out, style=args.style,
                    title=args.title)
    print(f"wrote {args.out}")
    return 0


def _cmd_diag(args) -> int:
    from .data import generate_synthetic

    failures = 0
    records = []

    def record(kind, name, passed, **fields):
        records.append(dict(kind=kind, name=name, passed=bool(passed),
                            **fields))
        return 0 if passed else 1

    print("== snapshot-schedule law (exhaustive enumeration) ==")
    for m in (2, 3, 5):
        reports = enumerate_snapshot_law(m, 10 if not args.fast else 6)
        worst = max(r.max_discrepancy for r in reports)
        ok = all(r.passed for r in reports)
        failures += record("enumeration", f"m={m}", ok, max_discrepancy=worst)
        print(f"  m={m}: max discrepancy {worst:.2e} "
              f"{'PASS' if ok else 'FAIL'}")

    print("== gradient oracles vs central finite differences ==")
    ds = generate_synthetic(SyntheticSpec(n=20, d=5, spread=2.0,
                                          noise_rate=0.1, seed=args.seed))
    for name, model in (
        ("logistic(lam=0)", LogisticModel(ds, lam=0.0)),
        ("logistic(lam=0.1)", LogisticModel(ds, lam=0.1)),
        ("nonconvex(alpha=1)", NonconvexLogisticModel(ds, alpha=1.0)),
    ):
        rep = check_gradient_fd(model, trials=100 if not args.fast else 20,
                                seed=args.seed)
        failures += record("gradient-fd", name, rep.passed,
                           max_rel_err=rep.max_rel_err)
        print(f"  {name:20s} max err {rep.max_rel_err:.2e} "
              f"{'PASS' if rep.passed else 'FAIL'}")

    print("== estimator MSE bounds (Monte-Carlo, conditional on the "
          "snapshot event) ==")
    resamples = 2000 if not args.fast else 300
    convex = LogisticModel(ds, lam=0.0)
    reports = estimate_mse_bound(convex, "convex", eta=0.5 / convex.L,
                                 horizon=8, resamples=resamples,
                                 seed=args.seed)
    ok = all(r.passed for r in reports)
    failures += record("mse-bound", "convex", ok,
                       estimates=[r.estimate for r in reports],
                       bounds=[r.bound for r in reports])
    print(f"  convex:    {'PASS' if ok else 'FAIL'} "
          f"(horizon {len(reports) - 1}, {resamples} resamples)")
    noncvx = NonconvexLogisticModel(ds, alpha=1.0)
    from .planner import eta_max_nonconvex
    reports = estimate_mse_bound(noncvx, "nonconvex",
                                 eta=eta_max_nonconvex(5, noncvx.L),
                                 horizon=8, resamples=resamples,
                                 seed=args.seed)
    ok = all(r.passed for r in reports)
    failures += record("mse-bound", "nonconvex", ok,
                       estimates=[r.estimate for r in reports],
                       bounds=[r.bound for r in reports])
    print(f"  nonconvex: {'PASS' if ok else 'FAIL'}")

    print("== sampling-distribution oracles ==")
    import numpy as np

    hetero = generate_synthetic(SyntheticSpec(n=10, d=5, spread=10.0,
                                              seed=args.seed))
    model = LogisticModel(hetero, lam=0.0)
    x_here = np.full(model.d, 0.3)
    x_prev = np.zeros(model.d)
    rep = compare_sampling_oracles(model, x_here, x_prev)
    ok = rep.optimal_beats_uniform and rep.optimal_beats_lipschitz
    failures += record("sampling-oracles", "heterogeneous", ok,
                       variance_optimal=rep.variance_optimal,
                       variance_lipschitz=rep.variance_lipschitz,
                       variance_uniform=rep.variance_uniform)
    print(f"  variance: optimal {rep.variance_optimal:.3e} <= "
          f"smoothness-based {rep.variance_lipschitz:.3e}, "
          f"uniform {rep.variance_uniform:.3e} "
          f"{'PASS' if ok else 'FAIL'}")

    if args.json:
        import json

        Path(args.json).write_text(
            json.dumps({"schema": "diag-v1", "records": records},
                       indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    print(f"diagnostics: {'ALL PASS' if failures == 0 else f'{failures} FAILURE(S)'}")
    return 0 if failures == 0 else 1


def _cmd_subsample_study(args) -> int:
    cp = _read_config(args.config)
    dataset = _parse_dataset(cp).load()
    sec = cp["study" if cp.has_section("study") else cp.default_section]
    n_values = _value(sec, "n_values", _ints, [10, 100, 1000])
    passes = _value(sec, "passes", int, 30)
    rows = bench.subsample_study(
        dataset, n_values, passes=passes,
        seed=args.seed if args.seed is not None else 0,
        out_path=args.out,
    )
    for r in rows:
        print(f"  n'={r['n_sub']:<7d} {r['config']:14s} eta={r['eta']:.4g} "
              f"final ||grad F||^2 = {r['final_grad_sq']:.3e}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vropt", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run an experiment grid from a config")
    pr.add_argument("config")
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--workers", type=int, default=1)
    pr.add_argument("--out", default=None)
    pr.add_argument("--strict", action="store_true",
                    help="exit 3 if any run diverged")
    pr.set_defaults(fn=_cmd_run)

    pp = sub.add_parser("plot", help="render trace CSVs to an SVG")
    pp.add_argument("traces", nargs="+")
    pp.add_argument("--out", required=True)
    pp.add_argument("--style", choices=("grad", "subopt"), default="grad")
    pp.add_argument("--title", default="")
    pp.set_defaults(fn=_cmd_plot)

    pd = sub.add_parser("diag", help="run the diagnostics suite")
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--fast", action="store_true")
    pd.add_argument("--json", default=None,
                    help="also write structured records to this path")
    pd.set_defaults(fn=_cmd_diag)

    ps = sub.add_parser("subsample-study",
                        help="n-dependent vs n-independent step sizes")
    ps.add_argument("config")
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--out", default=None)
    ps.set_defaults(fn=_cmd_subsample_study)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VroptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
