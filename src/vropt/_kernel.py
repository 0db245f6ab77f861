"""Build, cache and load the compiled kernel, and own its C interface: the
inner segments of ``vropt.optim`` (``Segments``, ``_segment.c``), the
set-up of ``vropt.data`` and ``vropt.model`` (``_read.c``) and the model's
oracles: ``A x``, the sigmoid and the fused data gradient (``CSRView``,
``expit``, ``_oracle.c``), declared in ``_segment.h``.  No other module
creates or passes a C-side object.

The kernel is compiled with cffi's API mode and the system C compiler, once
per hash of its sources (``SOURCES``) and flags and per Python ABI, into
``_kernel_cache/`` next to this file or, when that cannot be used, the
per-user ``$XDG_CACHE_HOME/vropt`` (``~/.cache/vropt``).  The compiler runs
in a child process, so building costs the importing process no memory, and
the module is written under a temporary name and moved into place with
``os.replace``, so processes that build at once never see a partial file.

Loading a module runs its code, so a cache directory and the module in it
are used only when they are not symbolic links, belong to this user (or
root) and cannot be written by group or others; a new directory is made
with mode 0o700.  A failed compile leaves ``<module file>.failed`` with
its error in the cache, and later imports take the Python loop without
compiling again (delete the file to retry); a missing compiler is found
before any child process starts.

``load()`` runs at ``vropt`` import and leaves ``lib`` and ``ffi`` set, or
``None`` with the reason in ``status``.  The kernel is only loaded once its
dot product has equalled numpy's ``a @ b`` on random vectors of lengths
1-130, its LIBSVM reader has read a list of hard decimals as ``float()``
does, its expit has equalled ``1 / (1 + math.exp(-t))`` on the edges of
exp's range and its ``A x`` and data gradient have equalled plain loops:
every bit-identity claim of the compiled paths rests on these.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import importlib.util
import math
import os
import shlex
import shutil
import stat
import subprocess
import sys
import sysconfig
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import DivergenceError

HERE = Path(__file__).resolve().parent
# the declarations, the main source and the other sources: what a build
# compiles and what names its module
SOURCES = (HERE / "_segment.h", HERE / "_segment.c", HERE / "_read.c",
           HERE / "_oracle.c")
CFLAGS = ("-O2", "-ffp-contract=off")
# numpy's ddot, by the names its BLAS builds export (ILP64 ones end in 64_)
_DDOT_NAMES = ("scipy_cblas_ddot64_", "cblas_ddot64_", "scipy_cblas_ddot",
               "cblas_ddot")

# run as ``python -c _BUILD name cache_dir "CFLAGS" *SOURCES``
_BUILD = r"""
import os, shutil, sys, tempfile
import cffi
name, cache, flags, header, main, *others = sys.argv[1:]
ffi = cffi.FFI()
ffi.cdef(open(header).read())
ffi.set_source(name, open(main).read(), sources=others,
               include_dirs=[os.path.dirname(header)], libraries=["m"],
               extra_compile_args=flags.split())
tmp = tempfile.mkdtemp(dir=cache, prefix=".build-")
try:
    built = ffi.compile(tmpdir=tmp)
    os.chmod(built, 0o755)
    os.replace(built, os.path.join(cache, os.path.basename(built)))
finally:
    shutil.rmtree(tmp, ignore_errors=True)
"""

lib = ffi = None
status = "not loaded"
_NO_LIMIT = (1 << 63) - 1  # the largest int64: an IFO count never reached


def module_name() -> str:
    h = hashlib.sha256()
    for path in SOURCES:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    h.update(" ".join(CFLAGS).encode())
    return "_vropt_segment_" + h.hexdigest()[:16]


def cache_dirs() -> list:
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    user = Path(xdg) if os.path.isabs(xdg) else Path.home() / ".cache"
    return [HERE / "_kernel_cache", user / "vropt"]


def _check_private(path: Path) -> None:
    """Raise PermissionError unless ``path`` is no symbolic link, belongs to
    this user or root, and cannot be written by group or others."""
    st = os.lstat(path)
    if stat.S_ISLNK(st.st_mode):
        raise PermissionError(f"{path} is a symbolic link")
    if st.st_uid not in (os.getuid(), 0):
        raise PermissionError(f"{path} belongs to uid {st.st_uid}")
    if st.st_mode & 0o022:
        raise PermissionError(f"{path} is writable by group or others")


def _compiler() -> str | None:
    """The C compiler a build would run, if it is on the PATH."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    words = shlex.split(cc)
    return shutil.which(words[0]) if words else None


def build(name: str, cache: Path) -> None:
    """Compile the kernel into ``cache`` in a child process, unless an
    earlier compile of the same module failed there or no compiler is
    found; a failed compile is recorded for the next call."""
    failed = cache / (name + sysconfig.get_config_var("EXT_SUFFIX") + ".failed")
    if failed.exists():
        raise RuntimeError(f"earlier build failed, see {failed}")
    if _compiler() is None:
        raise RuntimeError("no C compiler found")
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _BUILD, name, str(cache), " ".join(CFLAGS),
             *map(str, SOURCES)], capture_output=True, text=True, timeout=300)
    except subprocess.TimeoutExpired:
        error = "compile timed out after 300 s"
    else:
        error = proc.returncode and (proc.stderr.strip().rsplit("\n", 1)[-1]
                                     or f"exit status {proc.returncode}")
    if error:
        failed.write_text(error + "\n")
        raise RuntimeError(error)


def _numpy_ddot():
    """(address, int64 arguments) of the ddot behind numpy's ``a @ b``."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    # dlsym on the extension also searches the BLAS library it links
    umath = ctypes.CDLL(core.__file__)
    for sym in _DDOT_NAMES:
        try:
            fn = getattr(umath, sym)
        except AttributeError:
            continue
        return ctypes.cast(fn, ctypes.c_void_p).value, sym.endswith("64_")
    raise LookupError("numpy exposes no cblas ddot")


# a str's UTF-8 form, which for an ASCII str is its own data
_utf8 = ctypes.pythonapi.PyUnicode_AsUTF8AndSize
_utf8.argtypes = (ctypes.py_object, ctypes.POINTER(ctypes.c_ssize_t))
_utf8.restype = ctypes.c_void_p


@contextlib.contextmanager
def chars(text):
    """The bytes of ``text`` in place, as the ``char *`` that ``Reader``
    reads: a bytes-like object's own buffer, held until the ``with`` block
    ends, or an ASCII str's one byte per character, which CPython keeps as
    the str's UTF-8 form (``PyUnicode_AsUTF8AndSize`` returns it without a
    copy; the caller keeps the str alive).  None when no kernel is loaded
    or the str has a non-ASCII character, whose UTF-8 form would be a
    copy of the whole text."""
    if isinstance(text, str):
        in_place = lib is not None and text.isascii()
        yield ffi.cast("const char *", _utf8(text, None)) if in_place else None
    elif lib is None:
        yield None
    else:
        with ffi.from_buffer(text) as view:
            yield view


class Reader:
    """The kernel's LIBSVM reader on one text of ``size`` bytes at
    ``chars``, with arrays for the labels, nonzeros per row, 0-based indices
    and values of all its rows, sized once by one count (``vr_size_block``)
    of its ':' bytes and of its bytes below 0x1f, which hold every line end
    of this reader and of ``vropt.data._parse_block``: a text cut into
    blocks just after a '\n' fits them whichever of the two reads each
    block.  They are filled from the front, block after block: by the
    reader in place (``read``) or with arrays read elsewhere (``put``)."""

    def __init__(self, chars, size: int):
        room = ffi.new("vr_block *")
        lib.vr_size_block(chars, size, room)
        self.chars, self.rows, self.nnz = chars, 0, 0
        self.arrays = (np.empty(room.max_rows), np.empty(room.max_rows, np.int64),
                       np.empty(room.max_nnz, np.int64), np.empty(room.max_nnz))
        self._views = [ffi.from_buffer(kind, a) for kind, a in zip(
            ("double[]", "int64_t[]", "int64_t[]", "double[]"), self.arrays)]

    def read(self, lo: int, hi: int):
        """Read the whole lines text[lo:hi] into the arrays after what is
        there; their line breaks, or None (and nothing filled) where the
        reader declines them."""
        labels, _, indices, _ = self.arrays
        at = (self.rows, self.rows, self.nnz, self.nnz)
        b = ffi.new("vr_block *", [
            labels.size - self.rows, indices.size - self.nnz,
            *(view + k for view, k in zip(self._views, at))])
        if not lib.vr_read_block(self.chars + lo, hi - lo, b):
            return None
        self.rows += b.rows
        self.nnz += b.nnz
        return b.breaks

    def put(self, part):
        """Copy one block's (labels, nonzeros per row, indices, values) into
        the arrays after what is there."""
        at = (self.rows, self.rows, self.nnz, self.nnz)
        for array, k, new in zip(self.arrays, at, part):
            array[k:k + new.size] = new
        self.rows += part[0].size
        self.nnz += part[2].size

    def filled(self):
        """The filled part of the arrays, as views."""
        labels, counts, indices, values = self.arrays
        return (labels[:self.rows], counts[:self.rows], indices[:self.nnz],
                values[:self.nnz])


def _bounds_ok(indptr, size) -> bool:
    """Whether ``indptr`` rises from 0 to ``size``, as a CSR matrix's does."""
    return bool(indptr.ndim == 1 and indptr.size and indptr[0] == 0
                and indptr[-1] == size and not np.any(indptr[1:] < indptr[:-1]))


def row_sq_norms(indptr, values):
    """||a_i||^2 per CSR row, one numpy ddot per row (as ``vals @ vals``),
    or None when no kernel is loaded."""
    if lib is None:
        return None
    indptr = np.ascontiguousarray(indptr, np.int64)
    values = np.ascontiguousarray(values, np.float64)
    if not _bounds_ok(indptr, values.size):
        raise ValueError("indptr must rise from 0 to the number of values")
    out = np.empty(indptr.size - 1)
    lib.vr_row_sq_norms(out.size, ffi.from_buffer("int64_t[]", indptr),
                        ffi.from_buffer("double[]", values),
                        ffi.from_buffer("double[]", out))
    return out


class CSRView:
    """A CSR matrix ``a`` (``indptr``, ``indices``, ``data`` and ``shape``,
    as scipy's csr_matrix has them) as the loaded kernel's oracles read
    it.  Its bounds are checked once, here, since the kernel follows them;
    ``ffi`` names the kernel the view was made for."""

    def __init__(self, a):
        n, d = self.shape = a.shape
        indptr = np.ascontiguousarray(a.indptr, np.int64)
        indices = np.ascontiguousarray(a.indices, np.int64)
        values = np.ascontiguousarray(a.data, np.float64)
        if not (indptr.size == n + 1 and _bounds_ok(indptr, values.size)
                and indices.shape == values.shape
                and (not indices.size or 0 <= indices.min() <= indices.max() < d)):
            raise ValueError(f"not a CSR matrix of shape {a.shape}")
        self.ffi = ffi
        self.width = int(np.diff(indptr).max(initial=0))  # the longest row
        self._arrays = [ffi.from_buffer("int64_t[]", indptr),
                        ffi.from_buffer("int64_t[]", indices),
                        ffi.from_buffer("double[]", values)]  # kept alive
        self._csr = ffi.new("vr_csr *", [n, d, *self._arrays])

    def product(self, x):
        """``a @ x`` for a vector ``x`` of length d, in the order of scipy's
        ``csr_matrix.dot`` (see ``_oracle.c``)."""
        n, d = self.shape
        x = np.ascontiguousarray(x, np.float64)
        if x.shape != (d,):
            raise ValueError(f"dimension mismatch: {x.shape} against a vector "
                             f"of {d}")
        out = np.empty(n)
        lib.vr_csr_dot(self._csr, ffi.from_buffer("double[]", x),
                       ffi.from_buffer("double[]", out))
        return out

    def data_gradient(self, b, x):
        """``a.T @ c`` for ``c = ((-b) * expit(-(b * (a @ x)))) / n``, with
        ``b`` of length n and ``x`` a vector or a matrix of k columns (then
        ``b`` multiplies by row): the data term of the logistic gradient at
        each column of ``x``, in one kernel call with the operations and
        order of that numpy and scipy composition (see ``_oracle.c``)."""
        n, d = self.shape
        x = np.ascontiguousarray(x, np.float64)
        if x.ndim not in (1, 2) or x.shape[0] != d:
            raise ValueError(f"dimension mismatch: {x.shape} against {d} "
                             "columns")
        k = x.shape[1] if x.ndim == 2 else 1
        b = np.ascontiguousarray(b, np.float64)
        if b.shape != (n,):
            raise ValueError(f"dimension mismatch: {b.shape} labels against "
                             f"{n} rows")
        out = np.empty((d,) + x.shape[1:])
        lib.vr_data_grad(self._csr, ffi.from_buffer("double[]", b), k,
                         ffi.from_buffer("double[]", x),
                         ffi.from_buffer("double[]", np.empty(k)),
                         ffi.from_buffer("double[]", out))
        return out


def expit(t):
    """1 / (1 + exp(-t)) elementwise, as scipy.special.expit computes it.
    Needs the kernel loaded."""
    t = np.ascontiguousarray(t, np.float64)
    out = np.empty_like(t)
    lib.vr_expit(t.size, ffi.from_buffer("double[]", t),
                 ffi.from_buffer("double[]", out))
    return out


def at_most(target) -> float:
    """The largest double t <= ``target``, a real number (NaN for None): a
    double v has v <= target exactly when v <= t, as the kernel compares."""
    if target is None:
        return math.nan
    try:
        t = float(target)
    except OverflowError:  # an int or a fraction beyond the doubles
        return sys.float_info.max if target > 0 else -math.inf
    return math.nextafter(t, -math.inf) if t > target else t


class Segments:
    """The kernel on a run's state (``vropt.optim``'s ``_Run``) and dense
    estimator (``_Dense``, whose ``code``, ``cur``, ``prev`` and ``v`` are
    ``vr_seg``'s), reading A through the model's ``CSRView``.  ``run`` sets
    its two limits (the horizon or the update before x_a's; the IFOs of the
    budget, the next trace record or a schedule's next pass), takes the
    passes up to them in C, with the draws, the IFO count, the divergence
    guard and the run's logs (``_Log``s, which it appends to in place), and
    returns the loop position; the Python loop takes the next pass.  With
    ``snap_in`` (L2S's coin and SVRG's period, whose snapshot point is the
    current iterate) the kernel takes the snapshots too: the full
    gradient, its IFOs, the stop test at ``stop_grad_sq`` and the step.
    The state is copied in per segment, as Python may hold on to the
    estimator's arrays (x_a, also the next snapshot point, and the
    output)."""

    def __init__(self, model, st, est, table, sched, coin_m, period, u_cap,
                 bern, snap_in):
        from .model import kernel_view  # vropt.model imports this module
        labels, reg, reg_c = kernel_view(model)
        self.st, self.est, self.sched, self.n = st, est, sched, model.n
        self.idx, self.snap = st.streams[:2]
        self.a = model._A._compiled()  # made once per model, kept alive here
        self.s = s = ffi.new("vr_seg *")
        self.work = np.empty(2 * model.d + self.a.width)
        # the kernel reads these through raw pointers: pin dtype and layout
        self._hold = [ffi.from_buffer("double[]", a) for a in (
            np.ascontiguousarray(labels, np.float64), self.work)]
        s.labels, s.work = self._hold
        s.a, s.n, s.kind = self.a._csr, model.n, est.code
        s.reg, s.reg_c = reg, reg_c
        if table is not None:
            accept, alias = table.alias_table()
            self._hold += [ffi.from_buffer("double[]", a) for a in
                           (table.weights, accept)]
            self._hold.append(ffi.from_buffer("int64_t[]", alias))
            s.weights, s.accept, s.alias = self._hold[-3:]
        for rng, field_ in ((self.idx, s.idx_rng), (self.snap, s.snap_rng)):
            field_[0], field_[1] = rng._start, rng._gamma
        s.coin_m, s.period, s.diverge_sq = coin_m, period, st.diverge_sq
        self.u_cap, self.ifo_cap = u_cap, (
            _NO_LIMIT if st.config.max_ifo is None else st.config.max_ifo)
        s.snap_in, s.stop_sq = snap_in, at_most(st.config.stop_grad_sq)
        # each log the run keeps, with the kernel's (a view into s)
        self.logs = [(log, getattr(s, name)) for log, name in (
            (st.indices, "idx_log"), (st.iterates, "it_log"),
            (bern, "coin_log"), (st.snapshot_iters, "snap_log"),
            (st.snapshot_grads, "snap_v_log"),
            (st.snapshot_points, "snap_x_log")) if log is not None]

    def run(self, updates, inner, a_at):
        st, est, s = self.st, self.est, self.s
        if not updates:
            return updates, inner  # the first update is Python's
        count, n = st.counter.count, self.n
        s.until = a_at - 1 if a_at > updates else self.u_cap
        s.stop_at = min(self.ifo_cap, _NO_LIMIT if st.rec_step is None
                        else st.next_thresh)
        if self.sched is not None:
            est.eta = self.sched(count // n)
            s.stop_at = min(s.stop_at, (count // n + 1) * n)
        s.eta, s.updates, s.inner, s.count = est.eta, updates, inner, count
        s.idx_rng[2], s.snap_rng[2] = self.idx._ctr, self.snap._ctr
        state = [None if a is None else np.array(a, np.float64, order="C")
                 for a in (est.cur, est.prev, est.v)]
        s.cur, s.prev, s.v = [ffi.NULL if a is None
                              else ffi.from_buffer("double[]", a)
                              for a in state]
        while True:
            views = []  # alive until the call returns
            for log, kept in self.logs:
                log.free()  # a full log doubles
                views.append(ffi.from_buffer(log.buf))
                kept.buf, kept.size, kept.cap = views[-1], log.size, len(log.buf)
            why = lib.vr_segment(s)
            for log, kept in self.logs:
                log.size = kept.size
            if why != lib.VR_FULL:
                break
        est.cur, est.prev, est.v = state
        st.counter.count = s.count
        self.idx._ctr, self.snap._ctr = s.idx_rng[2], s.snap_rng[2]
        if why == lib.VR_DIVERGED:
            raise DivergenceError("iterate norm exploded", s.updates)
        if why == lib.VR_TARGET:
            st.hit_target = st.stopped = True
        return s.updates, s.inner


# decimals that a reader which does not round correctly gets wrong: ties and
# near-ties at 2^53 and 1 + 2^-53, 17-digit mantissas, the edges of the normal
# range and exact powers of ten at the fast path's bounds; then, as
# Eisel-Lemire's declines, read by strtod, exact binary ties of 17-19 digits
# (to even, down and up; divided, multiplied and plain), each with its
# neighbours one unit away in the last digit, 19 digits over 10^22, a divisor
# wider than 64 bits, shortest reprs whose quotient by 10^22 has 54 bits, the
# fewest it can have, and 20-digit mantissas that wrap to 0 modulo 2^64 (plain,
# as 19 digits times 10 and as 20 digits over 10^20); then two ties of 19
# digits that the Eisel-Lemire step declines, one in each of its branches: at a
# negative power its truncated product falls just short of the tie, so the bits
# under the rounding bit are all ones (the wider-product check), and at a
# positive power the product is exact, so they are all zeros (the half-way
# check); last, a 2 behind 63 leading zeros: a reader that counted them as
# significant would pass it to strtod, whose copy of a block's last token holds
# 63 characters, and decline the block
HARD_DECIMALS = (
    "9007199254740993", "9007199254740995", "9007199254740992e22",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203124",
    "1.00000000000000011102230246251565404236316680908203126",
    "0.1", "0.30000000000000004", "0.12345678901234568",
    "7.2057594037927933e16", "123456789012345678", "1e23", "1e22", "1e-22",
    "8.98846567431158e307", "1.7976931348623157e308",
    "2.2250738585072011e-308", "2.2250738585072014e-308", "-0.0", "-0",
    "+1.5E+3", "4.35679e-10",
    "4503599627370496.5", "4503599627370496.4", "4503599627370496.6",
    "4503599627370497.5", "4503599627370497.4", "4503599627370497.6",
    "2251799813685248.25", "2251799813685248.24", "2251799813685248.26",
    "1125899906842624.125", "1125899906842624.124", "1125899906842624.126",
    "18014398509481990", "18014398509481989", "18014398509481991",
    "14411518807585592e1", "14411518807585591e1", "14411518807585593e1",
    "0.0001234567890123456789", "-9999999999999999999e19",
    "9.043579051838357e-07", "9.534213424542022e-07",
    "18446744073709551616", "1.8446744073709551616e19",
    "0.18446744073709551616",
    "1126037345796096.875", "1845124767333692416e1",
    "0" * 63 + "2",
)


def _near_ties():
    """Two decimals m 10^q of 17-19 digits next to half-way points between
    doubles for each row q of _read.c's Eisel-Lemire table, [-22, 19].  A
    half-way point is c 2^e with c odd, of 54 bits; m 10^q lies a 1/M unit
    of m below or above it, where m M = c a -+ 1 with (a, M) = (2^k, 5^q)
    for q >= 0 and (5^-q, 2^k) for q < 0, or, where M = 1, at it: exact
    ties, one that rounds down to even and one up.  m is just under a power
    of two, where the truncation of a row costs the most.  A row one unit
    too large in its last place reads one of them wrong."""
    texts = []
    for q in range(-22, 20):
        for k in range(63, -1, -1) if q >= 0 else range(64):
            a, M = (2 ** k, 5 ** q) if q >= 0 else (5 ** -q, 2 ** k)
            top = min(63, (2 ** 54 * a // M).bit_length() - 1)
            hi = 2 ** top * M // a  # c < hi: m < 2^top
            if hi > 2 ** 53 + 4 * M:
                break
        for sign in (1, -1):
            if M == 1:  # c = 1 (mod 4) rounds down to even, 3 up
                c = hi - 1 - (hi - 3 + sign) % 4
                m = c * a
            else:
                c = hi - 1 - (hi - 1 - sign * pow(a, -1, M)) % M
                c -= M * (1 - c % 2)
                m = (c * a - sign) // M
            texts.append(f"{m}e{q}")
    return texts


# the signed zeros and where exp(-t) under- and overflows
EXPIT_EDGES = (0.0, -0.0, 709.8, -709.8, 745.0, -745.0, 800.0, -800.0)


def _expit_reference(t: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-t))
    except OverflowError:  # exp(-t) is inf
        return 0.0


def _expit_ok(rng) -> bool:
    t = np.concatenate([EXPIT_EDGES, 40.0 * rng.standard_normal(1000)])
    want = [_expit_reference(v) for v in t.tolist()]
    return expit(t).tobytes() == np.array(want).tobytes()


def _products_ok(rng) -> bool:
    """``A x`` and the data gradient against plain loops, on a 4 by 5 matrix
    with an empty row: ``A x`` for a vector of ones and a random one, the
    data gradient for 1, 2 and 5 vectors (5: a block of _oracle.c's LANES
    and one more).  Row 2 and column 0 hold 2^53, 1 and -2^53 in orders
    where a sum taken backwards gives 1 instead of 0.  The data gradient's
    first vector is all ones but for entry 3, which is 0, so that row 0
    sums to 1 and its margin is its label; the others are random.  The
    labels run through EXPIT_EDGES, values where expit(-z) is subnormal (so
    that dividing it by n rounds, unlike dividing -b expit(-z)) and random
    ones (with the edges alone, the coefficients were so regular that a
    scatter in reverse row order gave the same bits)."""
    big = 2.0 ** 53
    indptr, indices = [0, 2, 2, 5, 7], [0, 3, 0, 1, 4, 0, 2]
    values = [1.0, rng.standard_normal(), big, 1.0, -big, -big,
              rng.standard_normal()]
    a = CSRView(SimpleNamespace(indptr=np.array(indptr), shape=(4, 5),
                                indices=np.array(indices), data=np.array(values)))
    labels = (EXPIT_EDGES + (708.6, 709.3, 709.7)
              + tuple(rng.standard_normal(3)))

    def dot(x):
        y = [[0.0] * x.shape[1] for _ in range(4)]
        for i in range(4):
            for p in range(indptr[i], indptr[i + 1]):
                for j in range(x.shape[1]):
                    y[i][j] += values[p] * float(x[indices[p], j])
        return y

    def tdot(c):
        g = [[0.0] * len(c[0]) for _ in range(5)]
        for i in range(4):
            for p in range(indptr[i], indptr[i + 1]):
                for j in range(len(c[0])):
                    g[indices[p]][j] += values[p] * float(c[i][j])
        return g

    def same(got, want):
        want = np.array(want)
        return got.tobytes() == (want[:, 0] if got.ndim == 1 else want).tobytes()

    x = rng.standard_normal((5, 2))
    x[:, 0] = 1.0
    if not all(same(a.product(x[:, j]), dot(x[:, j:j + 1])) for j in (0, 1)):
        return False
    for k in (1, 2, 5):
        x = rng.standard_normal((5, k))
        x[:, 0] = 1.0
        x[3, 0] = 0.0
        one = (lambda v: v[:, 0]) if k == 1 else (lambda v: v)
        for shift in range(len(labels)):
            b = [labels[(shift + i) % len(labels)] for i in range(4)]
            want = tdot([[(-b[i] * _expit_reference(-(b[i] * s))) / 4
                          for s in row] for i, row in enumerate(dot(x))])
            if not same(a.data_gradient(b, one(x)), want):
                return False
    return True


def _self_test() -> bool:
    rng = np.random.default_rng(20190606)
    if not (_expit_ok(rng) and _products_ok(rng)):
        return False
    for n in range(1, 131):
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        got = lib.vr_dot(n, ffi.from_buffer("double[]", a),
                         ffi.from_buffer("double[]", b))
        if got != float(a @ b):
            return False
    for text in HARD_DECIMALS + tuple(_near_ties()):
        # as label and value, and as the last token of a block (which the
        # reader copies before strtod reads it)
        block = f"{text} 1:{text}\n{text}".encode()
        with ffi.from_buffer(block) as view:
            reader = Reader(view, len(view))
            if reader.read(0, len(view)) is None:
                continue
        labels, _, _, values = reader.filled()
        value = float(text)
        if (labels.tobytes() != np.array([value, value]).tobytes()
                or values.tobytes() != np.array([value][:value != 0]).tobytes()):
            return False
    return True


def load(dirs=None, compile_fn=None):
    """Load (building first if needed) the kernel; set and return ``lib``,
    or None when it is unavailable.  Never raises."""
    global lib, ffi, status
    lib = ffi = None
    try:
        import cffi  # noqa: F401  (the module needs its backend)
    except ImportError:
        status = "unavailable: no cffi"
        return None
    try:
        name = module_name()
        target = name + sysconfig.get_config_var("EXT_SUFFIX")
        candidates = cache_dirs() if dirs is None else dirs
    except Exception as exc:  # e.g. the C source was not installed
        status = f"unavailable: {exc}"
        return None
    errors = []
    for cache in map(Path, candidates):
        path = cache / target
        try:
            cache.mkdir(mode=0o700, parents=True, exist_ok=True)
            _check_private(cache)
            if not path.exists():
                (compile_fn or build)(name, cache)
            _check_private(path)
            spec = importlib.util.spec_from_file_location(name, path)
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
            addr, int64_args = _numpy_ddot()
            mod.lib.vr_set_ddot(mod.ffi.cast("void *", addr), int64_args)
        except Exception as exc:  # no compiler, unsafe cache, ...
            errors.append(f"{cache}: {exc}")
            continue
        ffi, lib = mod.ffi, mod.lib
        if not _self_test():
            lib = ffi = None
            status = "unavailable: the kernel failed its self-test"
            return None
        status = f"loaded from {path}"
        return lib
    status = "build failed: " + "; ".join(errors)
    return None
