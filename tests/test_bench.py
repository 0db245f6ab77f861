import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from vropt import bench
from vropt.cli import load_experiment_spec
from vropt.cli import main as cli_main
from vropt.data import SyntheticSpec, generate_synthetic, write_libsvm
from vropt.errors import ConfigError
from vropt.model import LogisticModel, NonconvexLogisticModel
from vropt.optim import ALGORITHMS, run
from vropt.planner import eta_max_nonconvex
from vropt.svgplot import render_line_plot

from helpers import make_sparse_dataset

SC_SYNTH = SyntheticSpec(n=200, d=10, spread=1.5, noise_rate=0.1, seed=42)
BUDGET_SYNTH = SyntheticSpec(n=60, d=8, spread=1.5, noise_rate=0.1, seed=3)


def sc_spec(out_dir, optimizers, passes=30, seeds=(0,)):
    return bench.ExperimentSpec(
        name="bench-test",
        dataset=bench.DatasetSpec(synthetic=SC_SYNTH),
        loss=bench.LossSpec(kind="logistic", lam=0.02),
        optimizers=tuple(optimizers),
        passes=passes,
        seeds=tuple(seeds),
        out_dir=str(out_dir),
    )


class TestExperimentValidation:
    def test_empty_optimizer_list(self, tmp_path):
        spec = sc_spec(tmp_path, [])
        with pytest.raises(ConfigError):
            bench.run_experiment(spec)

    def test_duplicate_labels(self, tmp_path):
        setup = bench.OptimizerSetup(algorithm="GD", label="x", eta_over_L=0.5)
        with pytest.raises(ConfigError):
            bench.run_experiment(sc_spec(tmp_path, [setup, setup]))

    def test_empty_seed_list(self, tmp_path):
        setup = bench.OptimizerSetup(algorithm="GD", label="x", eta_over_L=0.5)
        with pytest.raises(ConfigError, match="at least one seed"):
            bench.run_experiment(sc_spec(tmp_path, [setup], seeds=()))

    def test_no_trace_is_refused(self, tmp_path):
        # the summary ranks labels by their traces' final gradients
        setup = bench.OptimizerSetup(algorithm="GD", label="x", eta_over_L=0.5)
        spec = dataclasses.replace(sc_spec(tmp_path / "out", [setup]),
                                   record_every_pass=None)
        with pytest.raises(ConfigError, match="must be a number"):
            bench.run_experiment(spec)
        assert not (tmp_path / "out").exists()

    def test_eta_choices_exclusive(self, tmp_path):
        setup = bench.OptimizerSetup(algorithm="GD", label="x",
                                     eta=0.1, eta_over_L=0.5)
        with pytest.raises(ConfigError):
            bench.run_experiment(sc_spec(tmp_path, [setup]))


class TestRunExperiment:
    def test_sarah_and_l2ssc_reach_target(self, tmp_path):
        spec = sc_spec(tmp_path, [
            bench.OptimizerSetup(algorithm="SARAH", label="sarah",
                                 eta_over_L=0.5, m_rule="n"),
            bench.OptimizerSetup(algorithm="L2S-SC", label="l2s_sc",
                                 eta_over_L=0.5, m_rule="n"),
        ])
        summary = bench.run_experiment(spec)
        for label in ("sarah", "l2s_sc"):
            info = summary["labels"][label]
            assert info["final_grad_sq_per_seed"][0] <= 1e-8
            _, cols = bench.read_trace_csv(tmp_path / f"{label}_seed0.csv")
            assert len(cols["effective_pass"]) == spec.passes + 1
            assert np.all(np.diff(cols["effective_pass"]) >= 0)

    @pytest.mark.parametrize("m_rule", ["n", "5"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_cell_stops_on_its_budget(self, algorithm, m_rule):
        """A grid cell's IFO budget of ``passes`` n ends its run: the run
        stops early, within one pass of the budget, with one trace row per
        pass and one for x_0."""
        model = LogisticModel(generate_synthetic(BUDGET_SYNTH), lam=0.02)
        scale = "eta_over_Lbar" if algorithm == "D2S" else "eta_over_L"
        setup = bench.OptimizerSetup(algorithm, "cell", m_rule=m_rule,
                                     **{scale: 0.5})
        passes, n = 4, model.n
        result = run(model, setup.build_config(model, passes, 0, 1.0))
        assert result.stopped_early
        assert passes * n <= result.total_ifo <= (passes + 1) * n
        assert len(result.trace) == passes + 1

    def test_summary_ifo_matches_trace(self, tmp_path):
        spec = sc_spec(tmp_path, [
            bench.OptimizerSetup(algorithm="SARAH", label="sarah",
                                 eta_over_L=0.5, m_rule="n")])
        summary = bench.run_experiment(spec)
        _, cols = bench.read_trace_csv(tmp_path / "sarah_seed0.csv")
        assert int(cols["ifo"][-1]) == summary["labels"]["sarah"]["ifo_total_per_seed"][0]

    def test_eta_sweep_selects_argmin(self, tmp_path):
        setups = [
            bench.OptimizerSetup(algorithm="SARAH", label=f"sarah_eta{k}",
                                 eta_over_L=v, m_rule="n")
            for k, v in enumerate((0.05, 0.5, 0.9))
        ]
        summary = bench.run_experiment(sc_spec(tmp_path, setups, passes=12))
        means = {lab: summary["labels"][lab]["mean_final_grad_sq"]
                 for lab in summary["labels"]}
        best = summary["best_label_per_algorithm"]["SARAH"]
        assert means[best] == min(means.values())

    def test_rerun_byte_identical(self, tmp_path):
        setups = [bench.OptimizerSetup(algorithm="L2S", label="l2s",
                                       eta_over_L=0.5, m_rule="sqrt_n")]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        bench.run_experiment(sc_spec(a_dir, setups, passes=10, seeds=(0, 1)))
        bench.run_experiment(sc_spec(b_dir, setups, passes=10, seeds=(0, 1)))
        for seed in (0, 1):
            fa = (a_dir / f"l2s_seed{seed}.csv").read_bytes()
            fb = (b_dir / f"l2s_seed{seed}.csv").read_bytes()
            assert fa == fb
        assert (a_dir / "summary.json").read_bytes() == \
               (b_dir / "summary.json").read_bytes()

    def test_diverged_cell_recorded_not_fatal(self, tmp_path):
        spec = sc_spec(tmp_path, [
            bench.OptimizerSetup(algorithm="GD", label="diverges", eta=2000.0),
            bench.OptimizerSetup(algorithm="GD", label="fine", eta_over_L=0.5),
        ], passes=6)
        summary = bench.run_experiment(spec)
        assert summary["any_diverged"]
        assert summary["labels"]["diverges"]["diverged_seeds"] == [0]
        assert summary["labels"]["fine"]["diverged_seeds"] == []

    def test_schema_header_present(self, tmp_path):
        spec = sc_spec(tmp_path, [bench.OptimizerSetup(
            algorithm="GD", label="gd", eta_over_L=0.5)], passes=4)
        bench.run_experiment(spec)
        first = (tmp_path / "gd_seed0.csv").read_text().splitlines()[0]
        assert first == f"# schema: {bench.CSV_SCHEMA}"

    def test_parallel_workers_match_serial(self, tmp_path):
        setups = [bench.OptimizerSetup(algorithm="SARAH", label="sarah",
                                       eta_over_L=0.5, m_rule="n")]
        s_dir, p_dir = tmp_path / "serial", tmp_path / "par"
        bench.run_experiment(sc_spec(s_dir, setups, passes=6, seeds=(0, 1)))
        bench.run_experiment(sc_spec(p_dir, setups, passes=6, seeds=(0, 1)),
                             workers=2)
        for seed in (0, 1):
            assert (s_dir / f"sarah_seed{seed}.csv").read_bytes() == \
                   (p_dir / f"sarah_seed{seed}.csv").read_bytes()


class TestSvgPlot:
    def test_single_trace(self):
        svg = render_line_plot(
            [("SARAH", [0, 1, 2], [1.0, 0.1, 0.01])],
            xlabel="effective passes (IFO / n)", ylabel="||grad F||^2")
        assert svg.count("<polyline") == 1
        assert "effective passes" in svg and "grad F" in svg

    def test_four_series_legend(self):
        series = [(name, [0, 1, 2], [1.0, 0.5 / (k + 1), 0.1 / (k + 1)])
                  for k, name in enumerate(("GD", "SGD", "SARAH", "L2S"))]
        svg = render_line_plot(series, xlabel="x", ylabel="y")
        assert svg.count("<polyline") == 4
        for name in ("GD", "SGD", "SARAH", "L2S"):
            assert f">{name}</text>" in svg

    def test_log_decade_ticks(self):
        svg = render_line_plot(
            [("a", [0, 1], [1e-12, 1.0])], xlabel="x", ylabel="y")
        assert "1e-12" in svg and "1e-06" in svg

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            render_line_plot([], xlabel="x", ylabel="y")

    def test_text_is_escaped(self):
        svg = render_line_plot([('A&B <"x">', [0, 1], [1.0, 0.1])],
                               xlabel="x < y", ylabel='"y" & z',
                               title='A&B <"t">')
        root = ElementTree.fromstring(svg)
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        for text in ('A&B <"x">', "x < y", '"y" & z', 'A&B <"t">'):
            assert text in texts

    def test_plain_text_bytes_unchanged(self):
        svg = render_line_plot(
            [("SARAH (seed 0)", [0, 1, 2], [1.0, 0.1, 0.01]),
             ("L2S (seed 1)", [0, 1, 2], [2.0, 0.3, 1e-5])],
            xlabel="effective passes (IFO / n)", ylabel="||grad F(x)||^2",
            title="race: n=500")
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "27556d4f9b324456d376b0e567e29967387cbba64e064126216866a0da2a8a9a")


class TestSubsampleStudy:
    def test_degenerate_single_size(self, tiny_dataset):
        rows = bench.subsample_study(tiny_dataset, [tiny_dataset.n],
                                     passes=5, seed=0)
        assert len(rows) == 2
        assert {r["config"] for r in rows} == {"n-independent", "n-dependent"}

    def test_no_sizes_is_refused(self, tiny_dataset, tmp_path):
        out = tmp_path / "study.csv"
        with pytest.raises(ConfigError, match=r"\[study\] n_values"):
            bench.subsample_study(tiny_dataset, [], out_path=str(out))
        assert not out.exists()

    @pytest.mark.parametrize("n_values", [[0], [10, 21]])
    def test_sizes_outside_the_dataset_are_refused(self, tiny_dataset,
                                                   tmp_path, n_values):
        out = tmp_path / "study.csv"
        with pytest.raises(ConfigError, match=r"\[study\] n_values: .* <= 20"):
            bench.subsample_study(tiny_dataset, n_values, out_path=str(out))
        assert not out.exists()

    @pytest.mark.parametrize("passes", [0, -3])
    def test_passes_below_one_are_refused(self, tiny_dataset, passes):
        with pytest.raises(ConfigError, match=rf"^\[study\] passes: needs "
                           rf"at least 1, got {passes}$"):
            bench.subsample_study(tiny_dataset, [10], passes=passes)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_0_to_2_to_64_is_refused(self, tiny_dataset, seed):
        with pytest.raises(ConfigError, match=rf"seed={seed} is not in"):
            bench.subsample_study(tiny_dataset, [10], seed=seed)

    def test_directional_claims(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n=1000, d=8, spread=2.0,
                                              noise_rate=0.1, seed=13))
        out = tmp_path / "study.csv"
        rows = bench.subsample_study(ds, [10, 100, 1000], passes=30, seed=4,
                                     out_path=str(out))
        dep = {r["n_sub"]: r["final_grad_sq"] for r in rows
               if r["config"] == "n-dependent"}
        indep = {r["n_sub"]: r["final_grad_sq"] for r in rows
                 if r["config"] == "n-independent"}
        # the n-dependent solution improves with n'
        assert dep[1000] < dep[100] < dep[10]
        # and its gap to the n-independent config narrows
        assert abs(dep[1000] - indep[1000]) < abs(dep[10] - indep[10])
        assert out.exists()


def write_demo_config(path, out_dir, lam="0.02", algorithm="SARAH",
                      extra=""):
    path.write_text(f"""
[experiment]
name = cli-demo
passes = 8
seeds = 0
out = {out_dir}

[dataset]
synthetic = true
n = 60
d = 5
spread = 1.5
noise = 0.1
seed = 42

[loss]
kind = logistic
lam = {lam}

[optimizer.main]
algorithm = {algorithm}
eta_over_L = 0.5
m = n
{extra}
""")


class TestCli:
    def test_run_roundtrip(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        write_demo_config(cfg, tmp_path / "out")
        assert cli_main(["run", str(cfg)]) == 0
        assert (tmp_path / "out" / "summary.json").exists()
        assert (tmp_path / "out" / "main_seed0.csv").exists()
        assert (tmp_path / "out" / "metadata.json").exists()

    def test_run_missing_config_is_config_error(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "nope.ini")]) == 2

    def test_run_missing_dataset_file(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("""
[experiment]
passes = 2
out = %s

[dataset]
path = does_not_exist.libsvm

[optimizer.gd]
algorithm = GD
eta_over_L = 0.5
""" % (tmp_path / "out"))
        assert cli_main(["run", str(cfg)]) == 2

    @pytest.mark.parametrize("old,new,message", [
        ("m = n", "m = abc", "[optimizer.main] m: malformed value 'abc'"),
        ("seeds = 0", "seeds = 1 x", "[experiment] seeds: malformed value"),
        ("n = 60", "n = x", "[dataset] n: malformed value 'x'"),
        ("eta_over_L = 0.5", "eta = x", "[optimizer.main] eta: malformed"),
        ("lam = 0.02", "lam = 1e", "[loss] lam: malformed value '1e'"),
        ("passes = 8", "passes = 8.5", "[experiment] passes: malformed"),
        ("seeds = 0", "seeds = 0\nrecord_every_pass = x",
         "[experiment] record_every_pass: malformed"),
        ("seeds = 0", "seeds = 0\nrecord_every_pass = nan",
         "record_every_pass must be positive and finite"),
        ("seeds = 0", "seeds = 0\nrecord_every_pass = inf",
         "record_every_pass must be positive and finite"),
        ("synthetic = true", "synthetic = maybe",
         "[dataset] synthetic: malformed value 'maybe'"),
        ("seeds = 0", "seeds =", "experiment needs at least one seed"),
        ("seeds = 0", "seeds = 0\nrecord_every_pass = none",
         "[experiment] record_every_pass: malformed value 'none'"),
        ("n = 60", "n = 60\nn = 61",
         "option 'n' in section 'dataset' already exists"),
        ("\n[experiment]", "x = 1\n[experiment]",
         "File contains no section headers"),
        ("passes = 8", "passes = 8%", "[experiment] passes: malformed "
         "value '8%'"),
        ("algorithm = SARAH\n", "", "[optimizer.main] algorithm: missing"),
        ("n = 60\n", "", "[dataset] n: missing"),
        ("d = 5\n", "", "[dataset] d: missing"),
        ("spread = 1.5", "spread = inf", "spread must be >= 1 and finite"),
        ("lam = 0.02", "lam = nan", "lam must be >= 0 and finite"),
        ("kind = logistic", "kind = nonconvex-logistic\nalpha = inf",
         "alpha must be > 0 and finite"),
        ("m = n", "m = 99999999999999999999",
         "m=99999999999999999999 does not fit a signed 64-bit integer"),
        ("lam = 0.02", "lam = 1e308", "L_bar, the mean of ||a_i||^2/4 + "
         "1e+308 over the rows, overflows a double"),
        ("spread = 1.5", "spread = 1e300",
         "a row's squared norm overflows a double"),
        ("n = 60", "n = 100000000000000000",
         "n=100000000000000000 by d=5 features cannot be allocated"),
        ("n = 60", "n = 100000000000000000000",
         "n=100000000000000000000 by d=5 features cannot be allocated"),
        ("d = 5", "d = 9223372036854775807",
         "n=60 by d=9223372036854775807 features cannot be allocated"),
        ("eta_over_L = 0.5", "eta_over_L = nan",
         "main: eta_over_L=nan gives the step nan"),
        ("eta_over_L = 0.5", "eta_over_Lbar = -inf",
         "main: eta_over_Lbar=-inf gives the step -inf"),
        ("lam = 0.02", "lamda = 0.02", "[loss] lamda: unknown key"),
        ("[optimizer.main]", "[optimiser.main]",
         "[optimiser.main]: unknown section"),
        ("\n[experiment]", "[DEFAULT]\nlam = 0.02\n[experiment]",
         "[DEFAULT]: unknown section"),
        ("spread = 1.5", "spread = 1.5\npath = x.libsvm",
         "[dataset] path: unknown key"),
        ("spread = 1.5", "spread = 0.5", "[dataset] spread must be >= 1"),
        ("seed = 42", "seed = -3", "[dataset] seed=-3 is not in [0, 2**64)"),
        ("seeds = 0", "seeds = -1", "seeds=-1 is not in [0, 2**64)"),
        ("seeds = 0", "seeds = 18446744073709551616",
         "seeds=18446744073709551616 is not in [0, 2**64)"),
    ])
    def test_malformed_number_is_config_error(self, tmp_path, capsys, old,
                                              new, message):
        cfg = tmp_path / "exp.ini"
        write_demo_config(cfg, tmp_path / "out")
        text = cfg.read_text()
        assert old in text
        cfg.write_text(text.replace(old, new))
        assert cli_main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("kind", ["non-utf8", "directory"])
    def test_unreadable_dataset_is_config_error(self, tmp_path, capsys, kind):
        path = tmp_path / "data.libsvm"
        if kind == "directory":
            path.mkdir()
            message = f"error: cannot read dataset file {path}: "
        else:
            path.write_bytes(b"+1 1:1.5\n-1 2:\xff0.5\n")
            message = "error: line 2: bad feature token "
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\npasses = 2\nout = {tmp_path / 'out'}\n"
                       f"[dataset]\npath = {path}\n"
                       "[optimizer.gd]\nalgorithm = GD\neta_over_L = 0.5\n")
        assert cli_main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_config_error(self, tmp_path, capsys,
                                               workers):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\npasses = 2\nout = {tmp_path / 'out'}\n"
                       "[dataset]\nsynthetic = true\nn = 20\nd = 3\n"
                       "[optimizer.gd]\nalgorithm = GD\neta_over_L = 0.5\n")
        assert cli_main(["run", str(cfg), "--workers", workers]) == 2
        assert capsys.readouterr().err == (
            f"error: workers: needs at least 1, got {workers}\n")
        assert not (tmp_path / "out").exists()

    def test_undecodable_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_bytes(b"[experiment]\nname = \xff\n")
        assert cli_main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: ") and "decode" in err

    def test_values_are_literal(self, tmp_path):
        """No % interpolation: a value is read as written."""
        cfg = tmp_path / "exp.ini"
        write_demo_config(cfg, tmp_path / "out")
        cfg.write_text(cfg.read_text().replace("name = cli-demo",
                                               "name = cli-demo 50%(x)s"))
        assert cli_main(["run", str(cfg)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["experiment"] == "cli-demo 50%(x)s"

    @pytest.mark.parametrize("text,message", [
        (None, "cannot read trace CSV"),
        ("# schema: trace-v1\n", ":2: header is not"),
        ("# schema: trace-v1\n" + ",".join(bench.CSV_COLUMNS) + "\n",
         "no data rows"),
        ("# schema: trace-v1\n" + ",".join(bench.CSV_COLUMNS)
         + "\nsarah,0,0.0,0,1.0,1.0\nsarah,0,1.0,x,1.0,1.0\n",
         ":4: malformed row 'sarah,0,1.0,x,1.0,1.0'"),
    ], ids=["missing", "schema-only", "header-only", "non-numeric"])
    def test_bad_trace_csv_is_config_error(self, tmp_path, capsys, text,
                                           message):
        trace = tmp_path / "trace.csv"
        if text is not None:
            trace.write_text(text)
        svg = tmp_path / "plot.svg"
        assert cli_main(["plot", str(trace), "--out", str(svg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(trace) in err
        assert message in err and not svg.exists()

    def test_run_nonconvex_grid(self, tmp_path):
        # an integer m, a planned (nonconvex) and an L_bar-relative step
        # size, and an SGD cell on the nonconvex loss
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"""
[experiment]
passes = 4
seeds = 0
out = {tmp_path / "out"}

[dataset]
synthetic = true
n = 60
d = 5
seed = 42

[loss]
kind = nonconvex-logistic
alpha = 0.5

[optimizer.l2s]
algorithm = L2S
regime = nonconvex
m = 5

[optimizer.sarah]
algorithm = SARAH
eta_over_Lbar = 0.5
m = 5

[optimizer.sgd]
algorithm = SGD
eta_over_Lbar = 0.5
""")
        assert cli_main(["run", str(cfg)]) == 0
        spec = load_experiment_spec(str(cfg))
        model = spec.loss.build(spec.dataset.load())
        assert isinstance(model, NonconvexLogisticModel)
        l2s, sarah, sgd = (setup.build_config(model, spec.passes, 0, 1.0)
                           for setup in spec.optimizers)
        assert (l2s.m, l2s.eta) == (5, eta_max_nonconvex(5, model.L))
        assert (sarah.m, sarah.eta) == (5, 0.5 / model.L_bar)
        assert (sgd.m, sgd.eta) == (60, 0.5 / model.L_bar)
        assert sgd.T == sgd.max_ifo == 4 * 60
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert not summary["any_diverged"]
        assert summary["labels"]["sgd"]["ifo_total_per_seed"] == [240]
        for label in ("l2s", "sarah", "sgd"):
            assert (tmp_path / "out" / f"{label}_seed0.csv").exists()

    def test_strict_divergence_exit_code(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        write_demo_config(cfg, tmp_path / "out", extra="")
        text = cfg.read_text().replace("eta_over_L = 0.5", "eta = 5000.0")
        cfg.write_text(text)
        assert cli_main(["run", str(cfg), "--strict"]) == 3
        assert cli_main(["run", str(cfg)]) == 0  # diverged but not strict

    def test_emit_plot_function(self, tmp_path):
        spec = sc_spec(tmp_path / "exp", [
            bench.OptimizerSetup(algorithm="GD", label="gd", eta_over_L=0.5),
            bench.OptimizerSetup(algorithm="SARAH", label="sarah",
                                 eta_over_L=0.5, m_rule="n")], passes=6)
        bench.run_experiment(spec)
        out = bench.emit_plot(
            [tmp_path / "exp" / "gd_seed0.csv",
             tmp_path / "exp" / "sarah_seed0.csv"],
            tmp_path / "both.svg", style="subopt")
        assert Path(out).read_text().count("<polyline") == 2
        with pytest.raises(ConfigError):
            bench.emit_plot([tmp_path / "exp" / "gd_seed0.csv"],
                            tmp_path / "x.svg", style="nope")

    def test_plot_command(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        write_demo_config(cfg, tmp_path / "out")
        cli_main(["run", str(cfg)])
        svg_path = tmp_path / "trace.svg"
        rc = cli_main(["plot", str(tmp_path / "out" / "main_seed0.csv"),
                       "--out", str(svg_path)])
        assert rc == 0
        assert svg_path.read_text().startswith("<svg")

    def test_dataset_dir_env_override(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "mini.libsvm").write_text("+1 1:1.0\n-1 2:1.0\n")
        monkeypatch.setenv(bench.DATA_DIR_ENV, str(data_dir))
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"""
[experiment]
passes = 2
out = {tmp_path / "out"}

[dataset]
path = mini.libsvm

[optimizer.gd]
algorithm = GD
eta_over_L = 0.5
""")
        assert cli_main(["run", str(cfg)]) == 0

    def test_metadata_records_inner_step(self, tmp_path):
        data = tmp_path / "sparse.libsvm"
        data.write_text(write_libsvm(make_sparse_dataset(n=80, nnz=8)))
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"""
[experiment]
passes = 2
seeds = 0 1
out = {tmp_path / "out"}

[dataset]
path = {data}
d = 1024

[loss]
kind = logistic
lam = 0.01

[optimizer.sarah]
algorithm = SARAH
eta_over_L = 0.5
m = n

[optimizer.svrg]
algorithm = SVRG
eta_over_L = 0.4
m = n
""")
        assert cli_main(["run", str(cfg)]) == 0
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["inner_step"] == {
            "sarah/seed0": "sparse", "sarah/seed1": "sparse",
            "svrg/seed0": "dense", "svrg/seed1": "dense"}

    def test_subsample_study_command(self, tmp_path):
        cfg = tmp_path / "study.ini"
        cfg.write_text(f"""
[experiment]
passes = 5

[dataset]
synthetic = true
n = 120
d = 4
seed = 3

[study]
n_values = 10 120
passes = 5
""")
        out = tmp_path / "study.csv"
        assert cli_main(["subsample-study", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().startswith("# schema: subsample-study-v1")

    def test_subsample_study_without_sizes_is_config_error(self, tmp_path,
                                                          capsys):
        cfg = tmp_path / "study.ini"
        cfg.write_text("[dataset]\nsynthetic = true\nn = 20\nd = 3\n\n"
                       "[study]\nn_values =\n")
        out = tmp_path / "study.csv"
        assert cli_main(["subsample-study", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [study] n_values: ")
        assert not out.exists()

    def test_subsample_study_size_above_n_is_config_error(self, tmp_path,
                                                          capsys):
        cfg = tmp_path / "study.ini"
        cfg.write_text("[dataset]\nsynthetic = true\nn = 50\nd = 3\n\n"
                       "[study]\nn_values = 10 100\n")
        assert cli_main(["subsample-study", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: [study] n_values: each needs 1 <= n_sub <= 50 (the "
            "dataset's n), got 10 100\n")

    def test_subsample_study_reads_only_study_keys(self, tmp_path, capsys):
        """[study] keys are checked; [DEFAULT] is refused, not read."""
        cfg = tmp_path / "study.ini"
        for text, message in (("[study]\nn_value = 10\n", "[study] n_value: "
                               "unknown key"),
                              ("[DEFAULT]\nn_values = 10\n",
                               "[DEFAULT]: unknown section")):
            cfg.write_text("[dataset]\nsynthetic = true\nn = 20\nd = 3\n"
                           + text)
            assert cli_main(["subsample-study", str(cfg)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_subsample_study_unreadable_config_is_config_error(self, tmp_path,
                                                              capsys):
        """subsample-study reads its config as ``run`` does."""
        cfg = tmp_path / "study.ini"
        cfg.write_text("[dataset]\nsynthetic = true\nn = 20\nn = 21\nd = 3\n")
        assert cli_main(["subsample-study", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: ")
        assert "option 'n' in section 'dataset' already exists" in err

    def test_diag_fast(self, capsys):
        assert cli_main(["diag", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_diag_json_records(self, tmp_path):
        import json

        out = tmp_path / "diag.json"
        assert cli_main(["diag", "--fast", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "diag-v1"
        assert payload["records"] and all(r["passed"]
                                          for r in payload["records"])

    def test_entry_point_installed(self):
        proc = subprocess.run([sys.executable, "-m", "vropt.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "subsample-study" in proc.stdout
