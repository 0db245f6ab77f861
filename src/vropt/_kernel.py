"""Build, cache and load the compiled inner-segment kernel (``_segment.c``).

The kernel is compiled with cffi's API mode and the system C compiler, once
per hash of its source, declarations and flags and per Python ABI, into
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

``load()`` runs at ``vropt.optim`` import and leaves ``lib`` and ``ffi``
set, or ``None`` with the reason in ``status``.  The kernel is only loaded
once its dot product has equalled numpy's ``a @ b`` on random vectors of
lengths 1-130: every bit-identity claim of the compiled path rests on it.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import shlex
import shutil
import stat
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SOURCE, HEADER = HERE / "_segment.c", HERE / "_segment.h"
CFLAGS = ("-O2", "-ffp-contract=off")
# numpy's ddot, by the names its BLAS builds export (ILP64 ones end in 64_)
_DDOT_NAMES = ("scipy_cblas_ddot64_", "cblas_ddot64_", "scipy_cblas_ddot",
               "cblas_ddot")

# run as ``python -c _BUILD name source_dir cache_dir *CFLAGS``
_BUILD = r"""
import os, shutil, sys, tempfile
import cffi
name, src, cache = sys.argv[1:4]
read = lambda f: open(os.path.join(src, f)).read()
ffi = cffi.FFI()
ffi.cdef(read("_segment.h"))
ffi.set_source(name, read("_segment.c"), include_dirs=[src],
               libraries=["m"], extra_compile_args=sys.argv[4:])
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


def module_name() -> str:
    h = hashlib.sha256()
    for part in (HEADER.read_bytes(), SOURCE.read_bytes(),
                 " ".join(CFLAGS).encode()):
        h.update(part)
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
            [sys.executable, "-c", _BUILD, name, str(HERE), str(cache),
             *CFLAGS], capture_output=True, text=True, timeout=300)
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


def _self_test(ffi, lib) -> bool:
    rng = np.random.default_rng(20190606)
    for n in range(1, 131):
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        got = lib.vr_dot(n, ffi.from_buffer("double[]", a),
                         ffi.from_buffer("double[]", b))
        if got != float(a @ b):
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
        if not _self_test(mod.ffi, mod.lib):
            status = "unavailable: kernel dot differs from numpy's"
            return None
        ffi, lib, status = mod.ffi, mod.lib, f"loaded from {path}"
        return lib
    status = "build failed: " + "; ".join(errors)
    return None
