"""The compiled inner segments against the Python loop they replace: every
RunResult field bit-identical, the kernel's draws equal to ``sampling``'s,
the fallback when the kernel is missing, and the build cache."""

import dataclasses
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vropt import _kernel, optim
from vropt.cli import main as cli_main
from vropt.data import SyntheticSpec, generate_synthetic, write_libsvm
from vropt.errors import ConfigError, DivergenceError
from vropt.model import LogisticModel, NonconvexLogisticModel
from vropt.optim import (ALGORITHMS, OptimizerConfig, engine, inner_step, run,
                         validate_config)
from vropt.sampling import (STREAM_INDEX, STREAM_SNAPSHOT, ImportanceTable,
                            Rng)

from helpers import make_sparse_dataset

ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1]
                                        / "src")}

needs_kernel = pytest.mark.skipif(
    _kernel.lib is None, reason=f"compiled kernel: {_kernel.status}")


class Proxy:
    """Delegating model: not a library type, so runs take the Python path."""

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)


@pytest.fixture(scope="module")
def models():
    dense = SyntheticSpec(n=120, d=16, spread=1.5, noise_rate=0.1, seed=5)
    return {
        "dense": LogisticModel(generate_synthetic(dense), lam=1e-3),
        "dense-lam0": LogisticModel(generate_synthetic(dense), lam=0.0),
        "nonconvex": NonconvexLogisticModel(generate_synthetic(dense),
                                            alpha=0.5),
        # sparse rows at d = 1024: the recursive estimators step lazily (in
        # Python), SGD and SVRG densely (in the kernel)
        "sparse": LogisticModel(make_sparse_dataset(n=150, seed=1),
                                lam=1e-3),
        "ridge-dominated": LogisticModel(
            make_sparse_dataset(n=150, seed=3, scale=0.1), lam=1.0),
    }


def _variants(algo, n, d):
    """Config keyword sets covering every event the kernel stops at."""
    horizon = dict(T=300) if algo in ("GD", "SGD", "L2S") else dict(S=3)
    out = [dict(), dict(record_iterates=True),
           dict(record_every_pass=0.5), dict(record_every_pass=3),
           dict(record_iterates=True, record_every_pass=None),
           dict(stop_grad_sq=1e-3), dict(stop_grad_sq=1e-3, max_ifo=2 * n),
           dict(x0=np.linspace(-0.2, 0.3, d))]
    out += [dict(max_ifo=k) for k in (0, 1, 2, n, n + 1, 2 * n + 5)]
    out += [dict(m=m) for m in (0, 1, 2)
            if m or algo not in ("SVRG", "L2S", "L2S-SC")]
    if algo in ("GD", "SGD"):
        out.append(dict(eta_schedule=lambda k: 0.3 / (k + 2)))
    if algo == "L2S-SC":
        out.append(dict(step_back=False, record_iterates=True))
    return [{"m": 20, **horizon, **v} for v in out]


def _outcome(model, config):
    """The RunResult, or (type, message, iteration) of the error raised."""
    try:
        return run(model, config)
    except DivergenceError as exc:
        return type(exc), str(exc), exc.iteration


def _bits(value):
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if isinstance(value, optim.Trace):
        return [_bits(v) for v in dataclasses.astuple(value)]
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


def assert_same_run(a, b):
    """Every field bit-identical but ``engine`` (and the shared config)."""
    assert type(a) is type(b)
    if isinstance(a, tuple):
        assert a == b
        return
    for f in dataclasses.fields(a):
        if f.name not in ("engine", "config"):
            assert _bits(getattr(a, f.name)) == _bits(getattr(b, f.name)), \
                f.name


def _eta(model, algo, scale=0.5):
    return scale / (model.L_bar if algo == "D2S" else model.L)


@needs_kernel
@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("name", ["dense", "dense-lam0", "nonconvex",
                                  "sparse", "ridge-dominated"])
def test_compiled_path_is_bit_identical(models, name, algo):
    model = models[name]
    compiled_path = algo != "GD" and inner_step(model, algo) == "dense"
    for kw in _variants(algo, model.n, model.d):
        for seed in (0, 7):
            config = OptimizerConfig(algo, eta=_eta(model, algo), seed=seed,
                                     **kw)
            compiled = _outcome(model, config)
            python = _outcome(Proxy(model), config)
            assert_same_run(compiled, python)
            if not isinstance(compiled, tuple):
                assert python.engine == "python"
                assert compiled.engine == ("compiled" if compiled_path
                                           else "python")


@needs_kernel
@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("name", ["dense", "sparse"])
def test_divergence_matches(name, algo):
    """With eta lam near 10 every iterate grows tenfold: both paths raise
    at the same iteration with the same message."""
    data = (generate_synthetic(SyntheticSpec(n=120, d=16, seed=5))
            if name == "dense" else make_sparse_dataset(n=150, seed=3))
    model = LogisticModel(data, lam=1.0)
    horizon = dict(T=200) if algo in ("GD", "SGD", "L2S") else dict(S=4)
    config = OptimizerConfig(algo, eta=_eta(model, algo, 10.0), m=30, seed=2,
                             **horizon)
    compiled, python = _outcome(model, config), _outcome(Proxy(model), config)
    assert isinstance(compiled, tuple)
    assert compiled == python


@needs_kernel
def test_traced_twin_sees_the_same_draws(models, monkeypatch):
    """A rebound draw function selects the Python path, whose draws then
    equal the compiled run's recorded indices and coins."""
    model = models["dense"]
    config = OptimizerConfig("L2S", eta=_eta(model, "L2S"), m=8, T=2000,
                             seed=3, record_iterates=True)
    compiled = run(model, config)
    seen = []

    def recorded(fn):
        def wrapper(rng, n):
            out = fn(rng, n)
            seen.append((rng.stream, out))
            return out
        return wrapper

    for name in ("draw_uniform_index", "draw_snapshot_flag"):
        monkeypatch.setattr(optim, name, recorded(getattr(optim, name)))
    assert engine(model, "L2S") == "python"
    traced = run(model, config)
    assert traced.engine == "python"
    assert_same_run(compiled, traced)
    for stream, drawn in ((STREAM_INDEX, compiled.indices),
                          (STREAM_SNAPSHOT, compiled.bernoulli)):
        assert np.array_equal([v for s, v in seen if s == stream], drawn)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_diverging_runs_warn_nothing(models, algo):
    """A run whose iterates overflow ends in DivergenceError, on both
    engines, and lets no numpy RuntimeWarning out (the squared norm of the
    divergence guard overflows silently)."""
    model = models["dense"]
    horizon = dict(T=200) if algo in ("GD", "SGD", "L2S") else dict(S=4)
    for scale in (1e10, 1e300, 1.7e308):
        config = OptimizerConfig(algo, eta=_eta(model, algo, scale), m=30,
                                 seed=2, **horizon)
        for m in (model, Proxy(model)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcome = _outcome(m, config)
            assert isinstance(outcome, tuple), (scale, outcome)
            assert [str(w.message) for w in caught] == [], scale


@pytest.mark.parametrize("kw,field", [
    (dict(algorithm="SARAH", m=10 ** 20, S=2), "m=100000000000000000000"),
    (dict(algorithm="SGD", T=2 ** 63), "T=9223372036854775808"),
    (dict(algorithm="SVRG", m=4, S=2 ** 64), "S=18446744073709551616"),
    (dict(algorithm="L2S", m=4, T=100, max_ifo=2 ** 63), "max_ifo="),
    (dict(algorithm="SARAH", m=2 ** 62, S=2), "update horizon"),
    (dict(algorithm="L2S", m=4, T=2 ** 63 - 1), "update horizon")])
def test_counts_beyond_int64_are_refused(models, kw, field):
    """m, T, S, max_ifo and the update horizon are the kernel's int64
    counts: one beyond that range is a ConfigError naming it on both
    engines, before any draw (the Python draw below(m + 1) never returned
    for m >= 2**64)."""
    model = models["dense"]
    config = OptimizerConfig(eta=_eta(model, kw["algorithm"]), **kw)
    for m in (model, Proxy(model)):
        with pytest.raises(ConfigError, match=re.escape(field)):
            run(m, config)


@pytest.mark.parametrize("kernel", ["loaded", "hidden"])
@pytest.mark.parametrize("kw,field,value", [
    (dict(algorithm="SARAH", m=4, S=2), "m", np.int64(4)),
    (dict(algorithm="SGD", T=50), "T", np.int64(50)),
    (dict(algorithm="L2S", m=4, T=50), "T", np.int32(50)),
    (dict(algorithm="SVRG", m=4, S=2), "S", np.uint8(2)),
    (dict(algorithm="SARAH", m=4, S=3, max_ifo=90), "max_ifo", np.int64(90)),
    (dict(algorithm="L2S", m=4, T=50, seed=3), "seed", np.int64(3)),
    (dict(algorithm="D2S", m=4, S=2, seed=3), "seed", np.uint64(3)),
    (dict(algorithm="SARAH", m=4, S=2), "m", 2.5),
    (dict(algorithm="SARAH", m=4, S=2), "m", np.float64(4.0)),
    (dict(algorithm="SARAH", m=4, S=2), "m", None),
    (dict(algorithm="SGD", T=10), "T", 10.5),
    (dict(algorithm="L2S", m=4, T=10), "T", 10.5),
    (dict(algorithm="L2S", m=4, T=10), "T", "10"),
    (dict(algorithm="SVRG", m=4, S=2), "S", 2.5),
    (dict(algorithm="SARAH", m=4, S=2, max_ifo=30), "max_ifo", 30.5),
    (dict(algorithm="SARAH", m=4, S=2), "seed", 1.5),
    (dict(algorithm="SARAH", m=4, S=2), "seed", "3"),
    (dict(algorithm="SARAH", m=4, S=2), "eta", "0.1"),
    (dict(algorithm="SARAH", m=4, S=2), "eta", None)])
def test_counts_are_integers(request, kernel, kw, field, value):
    """A numpy integer runs as the equal Python int, every RunResult field
    bit-identical; a float, string or None count (or a non-number eta) is a
    ConfigError naming the field, on both engines and before any draw.
    Without the kernel a fractional m or T never ended the loop."""
    model = LogisticModel(generate_synthetic(SyntheticSpec(n=20, d=3,
                                                           seed=1)), lam=0.1)
    if kernel == "hidden":
        request.getfixturevalue("no_kernel")
    kw = {"eta": _eta(model, kw["algorithm"]), **kw}
    config = OptimizerConfig(**{**kw, field: value})
    if isinstance(value, np.integer):
        python_int = run(model, OptimizerConfig(**kw))
        numpy_int = run(model, config)
        assert_same_run(python_int, numpy_int)
        assert python_int.engine == numpy_int.engine
        return
    message = ("eta must be positive and finite" if field == "eta"
               else f"{field} must be an integer")
    for m in (model, Proxy(model)):
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate_config(config)
        with pytest.raises(ConfigError, match=re.escape(message)):
            run(m, config)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_unreachable_record_cadence_records_x0_only(models, algo):
    """A trace threshold beyond every IFO count records x_0 alone, the same
    on both engines."""
    model = models["dense"]
    horizon = dict(T=300) if algo in ("GD", "SGD", "L2S") else dict(S=3)
    for cadence in (1e300, 1e308):
        config = OptimizerConfig(algo, eta=_eta(model, algo), m=20,
                                 record_every_pass=cadence, **horizon)
        compiled = run(model, config)
        assert len(compiled.trace) == 1 and compiled.trace.ifo[0] == 0
        assert_same_run(compiled, run(Proxy(model), config))


# -- the kernel's draws ------------------------------------------------------

SPECIAL_N = st.sampled_from(
    [1, 2, 3] + [2 ** k for k in (5, 31, 62)]
    + [2 ** k + 1 for k in (5, 31, 61, 62)] + [3 * 2 ** 61, 2 ** 63 - 1])


@needs_kernel
@settings(max_examples=60, deadline=None)
@given(n=st.one_of(SPECIAL_N, st.integers(1, 2 ** 63 - 1)),
       seed=st.integers(0, 2 ** 64 - 1), stream=st.integers(0, 3),
       skip=st.integers(0, 50), size=st.integers(1, 200))
def test_kernel_below_matches_rng(n, seed, stream, skip, size):
    ffi = _kernel.ffi
    rng = Rng(seed, stream)
    rng._ctr = skip
    state = ffi.new("uint64_t[3]", [rng._start, rng._gamma, rng._ctr])
    out = np.empty(size, dtype=np.int64)
    _kernel.lib.vr_below_block(state, n, size,
                               ffi.from_buffer("int64_t[]", out))
    assert out.tolist() == [rng.below(n) for _ in range(size)]
    assert state[2] == rng._ctr  # the same draws consumed, rejections too


@needs_kernel
@settings(max_examples=40, deadline=None)
@given(lipschitz=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=40),
       seed=st.integers(0, 2 ** 32), size=st.integers(1, 300))
def test_kernel_table_draw_matches_importance_table(lipschitz, seed, size):
    ffi, table = _kernel.ffi, ImportanceTable(lipschitz)
    rng = Rng(seed, 0)
    s = ffi.new("vr_seg *")
    accept, alias = table.alias_table()
    hold = (ffi.from_buffer("double[]", accept),
            ffi.from_buffer("int64_t[]", alias))
    s.n, (s.accept, s.alias) = table.n, hold
    s.idx_rng[0], s.idx_rng[1] = rng._start, rng._gamma
    out = np.empty(size, dtype=np.int64)
    _kernel.lib.vr_table_block(s, size, ffi.from_buffer("int64_t[]", out))
    assert out.tolist() == [int(table.draw(rng)) for _ in range(size)]
    assert s.idx_rng[2] == rng._ctr


# -- fallback ----------------------------------------------------------------

def _all_algorithms(model):
    out = []
    for algo in ALGORITHMS:
        horizon = dict(T=200) if algo in ("GD", "SGD", "L2S") else dict(S=2)
        out.append(run(model, OptimizerConfig(
            algo, eta=_eta(model, algo), m=25, seed=1, record_iterates=True,
            record_every_pass=0.5, **horizon)))
    return out


@pytest.fixture(scope="module")
def reference_runs(models):
    """Every algorithm on the dense model, with the kernel as loaded (module
    scope: set up before ``no_kernel`` hides it)."""
    return _all_algorithms(models["dense"])


@pytest.mark.parametrize("cause", ["unavailable", "build failed"])
def test_fallback_runs_python_path(models, reference_runs, no_kernel,
                                   tmp_path, cause):
    model, reference = models["dense"], reference_runs
    if cause == "build failed":
        # without cffi the loader stops earlier
        pytest.importorskip("cffi", exc_type=ImportError)

        def no_compiler(name, cache):
            raise RuntimeError("no C compiler")
        assert _kernel.load([tmp_path], compile_fn=no_compiler) is None
        assert _kernel.status.startswith("build failed")
    assert _kernel.lib is None
    for ref, res in zip(reference, _all_algorithms(model)):
        assert res.engine == "python"
        assert_same_run(ref, res)


def test_import_without_cffi_falls_back():
    script = ("import sys; sys.modules['cffi'] = None\n"
              "import vropt, vropt._kernel as k, vropt.optim as o\n"
              "from vropt.data import SyntheticSpec, generate_synthetic\n"
              "m = vropt.LogisticModel(generate_synthetic(SyntheticSpec("
              "n=30, d=4, seed=0)), lam=0.1)\n"
              "r = o.run(m, o.OptimizerConfig('L2S', eta=0.5 / m.L, m=4, T=50))\n"
              "print(k.status, r.engine)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=ENV, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["unavailable:", "no", "cffi", "python"]


# -- build cache -------------------------------------------------------------

@needs_kernel
def test_concurrent_builds_share_one_cache(tmp_path):
    """Two processes building into one empty cache at once both load the
    kernel, and only the finished module is left behind."""
    cache = tmp_path / "cache"
    script = ("import sys; from vropt import _kernel as k\n"
              "k.load([sys.argv[1]]); print(k.status)\n")
    procs = [subprocess.Popen([sys.executable, "-c", script, str(cache)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=ENV)
             for _ in range(2)]
    outs = [p.communicate(timeout=300) for p in procs]
    for p, (stdout, stderr) in zip(procs, outs):
        assert p.returncode == 0, stderr
        assert stdout.startswith("loaded from " + str(cache)), stdout
    names = sorted(p.name for p in cache.iterdir())
    assert len(names) == 1 and names[0].startswith(_kernel.module_name())
    assert names[0].endswith(".so")


def test_module_name_covers_every_source(monkeypatch, tmp_path):
    """Editing any source the build compiles names a new module, so a module
    cached from older sources (one without the reader, say) never loads."""
    copies = []
    for path in _kernel.SOURCES:
        copies.append(tmp_path / path.name)
        shutil.copyfile(path, copies[-1])
    monkeypatch.setattr(_kernel, "SOURCES", tuple(copies))
    names = [_kernel.module_name()]
    for path in copies:
        path.write_bytes(path.read_bytes() + b"\n")
        names.append(_kernel.module_name())
    assert len(set(names)) == len(copies) + 1


def test_build_compiles_every_source(monkeypatch, tmp_path):
    """SOURCES, which names the module, is every C file of the package; the
    package installs them all and the build is given all of them."""
    assert set(_kernel.SOURCES) == set(_kernel.HERE.glob("*.[ch]"))
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    installed = project["tool"]["setuptools"]["package-data"]["vropt"]
    assert {path.name for path in _kernel.SOURCES} <= set(installed)
    commands = []

    def run(command, **kwargs):
        commands.append(command)
        return subprocess.CompletedProcess(command, 1, "", "not compiled")
    monkeypatch.setattr(_kernel, "_compiler", lambda: "cc")
    monkeypatch.setattr(_kernel.subprocess, "run", run)
    with pytest.raises(RuntimeError, match="not compiled"):
        _kernel.build(_kernel.module_name(), tmp_path)
    assert commands[0][-len(_kernel.SOURCES):] == list(map(str, _kernel.SOURCES))


C_INTERFACE = re.compile(r"from_buffer|ffi\.new|ffi\.NULL|lib\.vr_|lib\.VR_")


def test_only_the_kernel_module_builds_c_objects():
    """``_kernel.py`` is the one module that creates or passes cffi objects;
    the others call its functions and classes."""
    found = {path.name: sorted(set(C_INTERFACE.findall(path.read_text())))
             for path in sorted(_kernel.HERE.glob("*.py"))}
    assert found.pop("_kernel.py")  # the pattern does match the owner
    assert {name: hits for name, hits in found.items() if hits} == {}


def _built_module():
    """The loaded kernel's file, or a stand-in when no kernel is built: the
    checks below must refuse the file before anything loads it."""
    path = Path(_kernel.status.rpartition("loaded from ")[2])
    return path if path.is_file() else None


@pytest.mark.parametrize("flaw", ["group-writable", "other-writable",
                                  "symlink", "foreign owner",
                                  "other-writable module"])
def test_unsafe_cache_is_never_loaded(no_kernel, tmp_path, flaw):
    """A cache directory, or a module in it, that someone else could have
    written is refused before its module is loaded, also when it holds a
    module under the right name, and nothing is built there."""
    pytest.importorskip("cffi", exc_type=ImportError)
    name = _kernel.module_name()
    target = name + sysconfig.get_config_var("EXT_SUFFIX")
    real = tmp_path / "real"
    real.mkdir(mode=0o700)
    built = _built_module()
    module = real / target
    if built is not None:
        shutil.copyfile(built, module)
    else:
        module.write_bytes(b"not a module")
    module.chmod(0o755)
    cache = real
    if flaw == "group-writable":
        real.chmod(0o770)
    elif flaw == "other-writable":
        real.chmod(0o707)
    elif flaw == "symlink":
        cache = tmp_path / "link"
        cache.symlink_to(real)
    elif flaw == "foreign owner":
        if os.getuid() != 0:
            pytest.skip("only root can give a directory away")
        os.chown(real, 12345, -1)
    else:
        module.chmod(0o757)

    def build(name, cache):
        raise AssertionError("built into an unsafe cache")
    assert _kernel.load([cache], compile_fn=build) is None
    assert "by group or others" in _kernel.status or (
        "symbolic link" in _kernel.status or "belongs to uid" in _kernel.status)
    assert _kernel.lib is None
    if built is not None:  # the same file in a private directory loads
        module.chmod(0o755)
        real.chmod(0o700)
        if flaw == "foreign owner":
            os.chown(real, os.getuid(), -1)
        assert _kernel.load([real], compile_fn=build) is not None


def test_new_cache_directory_is_private(no_kernel, tmp_path):
    pytest.importorskip("cffi", exc_type=ImportError)
    cache = tmp_path / "a" / "cache"
    _kernel.load([cache], compile_fn=lambda name, cache: None)
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700


def test_failed_build_is_not_repeated(no_kernel, monkeypatch, tmp_path):
    """A compile that fails is recorded in the cache; the next load fails at
    once, without starting a process, until the record is deleted."""
    pytest.importorskip("cffi", exc_type=ImportError)
    monkeypatch.setenv("CC", "false")  # found, and fails every compile
    assert _kernel.load([tmp_path]) is None
    failed = [p.name for p in tmp_path.iterdir()]
    assert failed == [_kernel.module_name()
                      + sysconfig.get_config_var("EXT_SUFFIX") + ".failed"]

    def no_process(*args, **kwargs):
        raise AssertionError("started a build process")
    monkeypatch.setattr(_kernel.subprocess, "run", no_process)
    assert _kernel.load([tmp_path]) is None
    assert "earlier build failed" in _kernel.status


def test_missing_compiler_starts_no_process(no_kernel, monkeypatch,
                                            tmp_path):
    pytest.importorskip("cffi", exc_type=ImportError)
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))

    def no_process(*args, **kwargs):
        raise AssertionError("started a build process")
    monkeypatch.setattr(_kernel.subprocess, "run", no_process)
    assert _kernel.load([tmp_path / "cache"]) is None
    assert "no C compiler" in _kernel.status
    assert list((tmp_path / "cache").iterdir()) == []  # nothing recorded


# -- vropt run ---------------------------------------------------------------

def test_metadata_records_engine(tmp_path):
    data = tmp_path / "dense.libsvm"
    data.write_text(write_libsvm(generate_synthetic(
        SyntheticSpec(n=60, d=8, seed=1))))
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"""
[experiment]
passes = 2
seeds = 0
out = {tmp_path / "out"}

[dataset]
path = {data}
d = 8

[loss]
kind = logistic
lam = 0.01

[optimizer.gd]
algorithm = GD
eta_over_L = 0.5

[optimizer.sarah]
algorithm = SARAH
eta_over_L = 0.5
m = n
""")
    assert cli_main(["run", str(cfg)]) == 0
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    compiled = "python" if _kernel.lib is None else "compiled"
    assert meta["engine"] == {"gd/seed0": "python", "sarah/seed0": compiled}
