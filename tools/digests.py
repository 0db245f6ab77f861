"""Digests of the outputs that a refactor must leave bit-identical.

    python3 tools/digests.py                          # the kernel as loaded
    PYTHONPATH=tools/no_kernel python3 tools/digests.py   # cffi hidden
    python3 tools/digests.py --parent REV             # diff REV against this tree

Prints sorted ``name sha256[:16]`` lines, one per output, for vropt as
imported from ``--src`` (by default the ``src/`` of the tree the script
sits in; the texts, grids and configs always come from this tree):

- every RunResult field but the config (the input), or the type, message
  and iteration of the DivergenceError raised, for every algorithm on four
  models (dense with lam 1e-3 and 0, nonconvex, and the rcv1-shaped canary
  of perfbench's sarah-sparse, whose recursive estimators step lazily),
  under each variant of ``tests/test_segments.py::_variants`` that holds no
  callable, at seeds 0 and 7;
- the same fields for runs at perfbench's l2s-dense shape (n = 1024,
  d = 16, lam 0) with the iterates recorded: L2S with m = 32 and
  T = 20000 (about 650 snapshots), and SVRG with m = 4 and S = 300, at
  seeds 0 and 1;
- ``parse_libsvm``'s arrays for the canary's text at seeds 0, 1 and 2,
  and for the full-shape text that sarah-sparse parses at seeds 0 and 1;
- ``parse_libsvm``'s arrays for a text of several blocks whose second
  block has a CRLF line end and whose third has two rows ended by a lone
  CR, which the compiled reader declines and numpy reads, and for a text
  of several blocks whose rows end with each of the seven line ends in
  turn, each parsed from str and from bytes;
- each CSV and ``summary.json`` that ``vropt run demos/config/race.ini``
  writes (``metadata.json`` holds timings and is left out).

``--parent REV`` exports REV with ``git archive`` into a temporary
directory and runs this script against REV's ``src/`` and this tree's, with
the kernel as loaded and with ``PYTHONPATH=tools/no_kernel``; it prints the
diff of each pair of outputs and exits 1 on any difference, 0 when the two
computed the same bits.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import difflib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
_parser.add_argument("--src", type=Path, default=ROOT / "src",
                     help="the src/ directory to import vropt from")
_parser.add_argument("--parent", metavar="REV",
                     help="diff REV's digests against this tree's")
ARGS = _parser.parse_args(None if __name__ == "__main__" else [])
for path in (ARGS.src, ROOT / "perfbench", ROOT / "tests"):
    sys.path.insert(0, str(path))

import numpy as np  # noqa: E402

import rcv1gen  # noqa: E402
from test_segments import _variants  # noqa: E402
from vropt import optim  # noqa: E402
from vropt.cli import main as cli_main  # noqa: E402
from vropt.data import (_BLOCK, SyntheticSpec,  # noqa: E402
                        generate_synthetic, parse_libsvm)
from vropt.errors import DivergenceError  # noqa: E402
from vropt.model import LogisticModel, NonconvexLogisticModel  # noqa: E402

CANARY = rcv1gen.Rcv1Shape(n=1000, d=2000)
LONG = rcv1gen.Rcv1Shape(n=2000, d=2000)  # about 3.5 blocks of text
L2S_DENSE = SyntheticSpec(n=1024, d=16, spread=1.5, noise_rate=0.1, seed=0)


def _bytes(value) -> bytes:
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(_bytes(v) for v in value) + b"]"
    if isinstance(value, optim.Trace):
        return _bytes(dataclasses.astuple(value))
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return repr(value).encode()


def _line(name: str, value) -> str:
    data = value if isinstance(value, bytes) else _bytes(value)
    return f"{name} {hashlib.sha256(data).hexdigest()[:16]}"


def _models():
    dense = SyntheticSpec(n=120, d=16, spread=1.5, noise_rate=0.1, seed=5)
    text = rcv1gen.generate_text(0, CANARY)
    return {
        "dense": LogisticModel(generate_synthetic(dense), lam=1e-3),
        "dense-lam0": LogisticModel(generate_synthetic(dense), lam=0.0),
        "nonconvex": NonconvexLogisticModel(generate_synthetic(dense),
                                            alpha=0.5),
        "rcv1-canary": LogisticModel(parse_libsvm(text, d=CANARY.d),
                                     lam=1e-4),
    }


def _result_lines(tag, model, config):
    try:
        result = optim.run(model, config)
    except DivergenceError as exc:
        yield _line(f"{tag}/error", (type(exc).__name__, str(exc),
                                     exc.iteration))
        return
    for f in dataclasses.fields(result):
        if f.name != "config":
            yield _line(f"{tag}/{f.name}", getattr(result, f.name))


def run_lines():
    for name, model in _models().items():
        for algo in optim.ALGORITHMS:
            eta = 0.5 / (model.L_bar if algo == "D2S" else model.L)
            variants = [kw for kw in _variants(algo, model.n, model.d)
                        if not any(callable(v) for v in kw.values())]
            for k, kw in enumerate(variants):
                for seed in (0, 7):
                    yield from _result_lines(
                        f"run/{name}/{algo}/v{k:02d}/seed{seed}", model,
                        optim.OptimizerConfig(algo, eta=eta, seed=seed, **kw))
    model = LogisticModel(generate_synthetic(L2S_DENSE), lam=0.0)
    for algo, kw in (("L2S", dict(m=32, T=20_000)), ("SVRG", dict(m=4, S=300))):
        for seed in (0, 1):
            yield from _result_lines(
                f"run/l2s-dense/{algo}/seed{seed}", model,
                optim.OptimizerConfig(algo, eta=0.5 / model.L, seed=seed,
                                      record_every_pass=None,
                                      record_iterates=True, **kw))


def _declined_blocks() -> str:
    lines = rcv1gen.generate_text(4, LONG).splitlines(keepends=True)
    starts = np.cumsum([0] + [len(line) for line in lines])
    crlf, lone_cr = np.searchsorted(starts, np.array([1.5, 2.5]) * _BLOCK)
    lines[crlf] = lines[crlf][:-1] + "\r\n"
    lines[lone_cr] = "+1 1:1\r-1 2:0.5\r" + lines[lone_cr]
    return "".join(lines)


def _line_ends() -> str:
    """A text of several blocks whose rows end with each of the seven line
    ends that numpy's reader knows, in turn."""
    ends = ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
    lines = rcv1gen.generate_text(5, LONG).splitlines()
    return "".join(line + ends[k % len(ends)] for k, line in enumerate(lines))


def _texts():
    """(tag, text, d) of each text whose parse is hashed."""
    for tag, shape, seeds in (("", CANARY, (0, 1, 2)),
                              ("full/", rcv1gen.Rcv1Shape(), (0, 1))):
        for seed in seeds:
            yield f"{tag}seed{seed}", rcv1gen.generate_text(seed, shape), shape.d
    declined = _declined_blocks()
    yield "declined/str", declined, LONG.d
    yield "declined/bytes", declined.encode(), LONG.d
    line_ends = _line_ends()
    yield "line-ends/str", line_ends, LONG.d
    yield "line-ends/bytes", line_ends.encode(), LONG.d


def parse_lines():
    for tag, text, d in _texts():
        ds = parse_libsvm(text, d=d)
        for name in ("indptr", "indices", "values", "y", "d"):
            yield _line(f"parse/{tag}/{name}", getattr(ds, name))


def race_lines():
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["run", str(ROOT / "demos/config/race.ini"),
                             "--out", out])
        yield _line("race/exit", code)
        for path in sorted(Path(out).rglob("*")):
            if path.suffix == ".csv" or path.name == "summary.json":
                yield _line(f"race/{path.relative_to(out)}",
                            path.read_bytes())


def compare(rev: str) -> int:
    """Diff the digests of REV's src/ against this tree's, with the kernel
    loaded and hidden; 1 on any difference."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    hidden = {"PYTHONPATH": str(ROOT / "tools" / "no_kernel")}
    differ = False
    with tempfile.TemporaryDirectory() as tree:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        for kernel, extra in (("loaded", {}), ("hidden", hidden)):
            outputs = [subprocess.run(
                [sys.executable, __file__, "--src", str(src)],
                env={**env, **extra}, check=True, capture_output=True,
                text=True).stdout.splitlines()
                for src in (Path(tree) / "src", ROOT / "src")]
            diff = list(difflib.unified_diff(
                *outputs, f"{rev} (kernel {kernel})",
                f"this tree (kernel {kernel})", lineterm=""))
            print(f"kernel {kernel}: {len(outputs[1])} digests, "
                  + ("they differ:" if diff else "no difference"), *diff,
                  sep="\n", flush=True)
            differ |= bool(diff)
    return int(differ)


def main() -> int:
    if ARGS.parent is not None:
        return compare(ARGS.parent)
    lines = [*run_lines(), *parse_lines(), *race_lines()]
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
