"""Datasets: LIBSVM parsing and writing, seeded subsampling, and seeded
synthetic instances with a controllable spread of row norms.

A :class:`Dataset` is held once, as CSR arrays that every layer shares:
``indptr`` (row i is ``indptr[i]:indptr[i+1]``), ``indices`` (0-based,
strictly increasing per row), ``values`` (finite, nonzero) and labels ``y``
(+/-1).  They are validated in bulk when the dataset is built and are
read-only afterwards.  :attr:`Dataset.rows` views them row by row, as
:class:`SparseRow` objects.

Real datasets (a9a, w7a, rcv1.binary) are never downloaded by this package;
fetch them manually from the LIBSVM binary collection
(https://www.csie.ntu.edu.tw/~cjlin/libsvmtools/datasets/binary.html) and
point the benchmark at the directory.  Tests rely only on bundled tiny
fixtures and synthetic data.
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .errors import ConfigError, ContractError, ParseError
from .sampling import Rng, check_int, check_seed, is_real

# substream ids for synthetic generation
_STREAM_FEATURES = 10
_STREAM_PLANE = 11
_STREAM_NOISE = 12
_BASE_NORM = 2.0  # smallest synthetic row norm (L_i floor = base^2/4)


def _check_rows(indptr, indices, values):
    """The sparse-row contract, for every row at once: indices strictly
    increasing and >= 0, values finite and nonzero."""
    if indices.ndim != 1 or indices.shape != values.shape:
        raise ContractError("indices and values must be 1-D and matching")
    if indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
        raise ContractError("indptr must rise from 0 to the number of values")
    rising = np.diff(indices) > 0
    cuts = indptr[1:-1]
    rising[cuts[(cuts > 0) & (cuts < indices.size)] - 1] = True  # row ends
    if not rising.all():
        raise ContractError("indices must be strictly increasing")
    if indices.size and indices.min() < 0:
        raise ContractError("negative feature index")
    if not np.all(np.isfinite(values)) or np.any(values == 0.0):
        raise ContractError("values must be finite and nonzero")


@dataclass
class SparseRow:
    """One datum of a Dataset, as read-only views of its arrays: sparse
    features plus a +/-1 label."""

    indices: np.ndarray
    values: np.ndarray
    label: float

    def sq_norm(self) -> float:
        return float(self.values @ self.values)


def _frozen(array, dtype) -> np.ndarray:
    view = np.asarray(array, dtype=dtype).view()
    view.flags.writeable = False
    return view


class Dataset:
    """n labelled sparse rows over d features as CSR arrays (see the module
    docstring)."""

    def __init__(self, indptr, indices, values, y, *, d: int,
                 name: str = "unnamed"):
        self.indptr = _frozen(indptr, np.int64)
        self.indices = _frozen(indices, np.int64)
        self.values = _frozen(values, np.float64)
        self.y = _frozen(y, np.float64)
        self.d = int(d)
        self.name = name
        if self.indptr.shape != (self.y.size + 1,):
            raise ContractError("need one indptr entry per row, plus one")
        _check_rows(self.indptr, self.indices, self.values)
        if self.indices.size and self.indices.max() >= self.d:
            row = np.searchsorted(self.indptr, np.argmax(self.indices >= self.d),
                                  side="right") - 1
            raise ConfigError(f"row {row} has index >= d={self.d}")
        if not np.all(np.isin(self.y, (-1.0, 1.0))):
            raise ConfigError("labels must be +/-1")

    @property
    def n(self) -> int:
        return self.y.size

    def labels(self) -> np.ndarray:
        return self.y

    @property
    def rows(self) -> tuple:
        """The rows as SparseRow objects over views of the arrays."""
        ptr = self.indptr.tolist()
        return tuple(SparseRow(self.indices[lo:hi], self.values[lo:hi], label)
                     for lo, hi, label in zip(ptr, ptr[1:], self.y.tolist()))


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    d: int
    spread: float = 1.0      # max/min target row norm; 1 = homogeneous
    noise_rate: float = 0.0  # label flip probability
    seed: int = 0

    def __post_init__(self):
        for name, check in (("n", check_int), ("d", check_int),
                            ("seed", check_seed)):  # kept as Python ints
            object.__setattr__(self, name, check(getattr(self, name), name))
        if self.n < 1 or self.d < 1:
            raise ConfigError("need n >= 1 and d >= 1")
        if not (is_real(self.spread) and 1.0 <= self.spread < np.inf):
            raise ConfigError("spread must be >= 1 and finite")
        if not (is_real(self.noise_rate) and 0.0 <= self.noise_rate <= 0.5):
            raise ConfigError("noise_rate must be in [0, 0.5]")


# line breaks (as str.splitlines() counts them) to b"\n", the other
# whitespace str.split() knows to b" ", and NUL, which the fixed-width byte
# strings below would drop, to a character no number contains
_NORMALIZE = bytes.maketrans(b"\r\x0b\x0c\x1c\x1d\x1e\t\x1f\x00",
                             b"\n\n\n\n\n\n  ?")
_BLOCK = 1 << 20  # characters parsed per step, which bounds the temporaries
_CHUNK = 1 << 16  # numbers read per step, for tokens up to 32 bytes long


def _numbers(buf, start, end, dtype):
    """The byte ranges [start, end) of buf read as numbers of dtype by
    float()'s or int()'s rules, up to the first range that does not read as
    one (all of them if every one does).  buf must extend past every end by
    the longest range."""
    lengths = end - start
    out = np.empty(start.size, dtype=dtype)
    lo = 0
    while lo < start.size:
        hi = min(start.size, lo + _CHUNK)
        width = max(1, int(lengths[lo:hi].max()))
        hi = min(hi, lo + max(1, _CHUNK * 32 // width))  # bounds the memory
        chars = np.lib.stride_tricks.sliding_window_view(buf, width)[start[lo:hi]]
        chars *= np.arange(width) < lengths[lo:hi, None]  # NUL-pad each token
        text = chars.view(f"S{width}").ravel()
        # a value past the double range reads as inf, which the caller's
        # finite check reports; numpy's overflow warning would come first
        with np.errstate(over="ignore"):
            try:
                out[lo:hi] = text.astype(dtype)
            except (ValueError, OverflowError):  # find the culprit, one at a time
                for j in range(lo, hi):
                    try:
                        out[j] = text[j - lo:j - lo + 1].astype(dtype)[0]
                    except (ValueError, OverflowError):
                        return out[:j]
        lo = hi
    return out


def _indices(buf, start, end):
    """Like _numbers(buf, start, end, np.int64), but reads plain digit
    strings (nearly every feature index) digit by digit, in bulk."""
    lengths = end - start
    out = np.zeros(start.size, dtype=np.int64)
    plain = (lengths > 0) & (lengths <= 18)
    for j in range(1, min(int(lengths.max(initial=0)), 18) + 1):
        digit = buf[end - j].astype(np.int64) - 48  # the j-th from the last
        inside = j <= lengths
        plain &= ~inside | ((digit >= 0) & (digit <= 9))
        out += np.where(inside, digit * 10 ** (j - 1), 0)
    other = np.flatnonzero(~plain)
    read = _numbers(buf, start[other], end[other], np.int64)
    out[other[:read.size]] = read
    return out if read.size == other.size else out[:other[read.size]]


def _parse_block(text: bytes, lines_before: int):
    """Whole lines of LIBSVM text: (labels, nonzeros per row, 0-based
    indices, values, line breaks), or ParseError at the first bad token."""
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n")
    text = text.translate(_NORMALIZE)
    buf = np.frombuffer(text, dtype=np.uint8)
    breaks = buf == 10
    space = np.ones(buf.size + 2, dtype=bool)
    np.logical_or(breaks, buf == 32, out=space[1:-1])
    edges = np.flatnonzero(space[1:] != space[:-1])
    start, end = edges[0::2], edges[1::2]  # token i is text[start[i]:end[i]]
    line = np.searchsorted(np.flatnonzero(breaks), start)  # within the block
    first = np.ones(start.size, dtype=bool)  # the label token of its line
    first[1:] = line[1:] != line[:-1]
    row, feat = np.cumsum(first) - 1, np.flatnonzero(~first)
    colons = np.append(np.flatnonzero(buf == 58), buf.size)
    colon = np.minimum(colons[np.searchsorted(colons, start)], end)
    # room for the fixed-width windows _numbers reads past each token
    buf = np.frombuffer(text + bytes(int((end - start).max(initial=0))), np.uint8)
    # a label is a whole token, a value follows the colon (and is empty, so
    # does not read, when there is none); both are read in token order
    numbers = _numbers(buf, np.where(first, start, np.minimum(colon + 1, end)),
                       end, np.float64)
    keys = _indices(buf, start[feat], colon[feat])
    stop = min(numbers.size, feat[keys.size] if keys.size < feat.size else start.size)
    # the tokens before the first one that does not read are checked in order
    m = int(np.searchsorted(feat, stop))
    k, v, r = keys[:m], numbers[feat[:m]], row[feat[:m]]
    prev = np.zeros(m, dtype=np.int64)  # the row's previous index, 0 at its start
    prev[1:] = np.where(r[1:] == r[:-1], k[:-1], 0)
    checks = ((k < 1, "index {k} must be >= 1"),
              (k <= prev, "indices must be strictly increasing ({k} after {p})"),
              (~np.isfinite(v), "non-finite value {v!r}"))
    failed = np.any([bad for bad, _ in checks], axis=0)
    if failed.any():
        j = int(np.argmax(failed))
        message = next(msg for bad, msg in checks if bad[j])
        raise ParseError(message.format(k=k[j], p=prev[j], v=float(v[j])),
                         lines_before + int(line[feat[j]]) + 1)
    if stop < start.size:
        token = text[start[stop]:end[stop]].decode("ascii", "replace")
        kind = "label" if first[stop] else "feature"
        raise ParseError(f"bad {kind} token {token!r}",
                         lines_before + int(line[stop]) + 1)
    keep = v != 0.0  # every feature was checked: k, v, r cover them all
    return (numbers[first], np.bincount(r[keep], minlength=first.sum()),
            k[keep] - 1, v[keep], int(np.count_nonzero(breaks)))


@contextlib.contextmanager
def _text(source):
    """The text of ``source``: a str as it is, or a bytes-like object's own
    bytes as a flat memoryview, released when the ``with`` block ends; a
    file object is read first."""
    if not isinstance(source, str):
        try:
            memoryview(source).release()
        except TypeError:  # no buffer: a file object
            source = source.read()
    if isinstance(source, str):
        yield source
    else:
        with memoryview(source) as view:
            if not view.c_contiguous:  # strided: read from one flat copy
                view = memoryview(view.tobytes())
            with view.cast("B") as text:
                yield text


def _blocks(text):
    """The ranges [lo, hi) of text's blocks: whole lines, about _BLOCK
    characters each."""
    find = re.compile("\n" if isinstance(text, str) else b"\n").search
    lo = 0
    while lo < len(text):
        found = find(text, lo + _BLOCK)
        hi = found.end() if found else len(text)
        yield lo, hi
        lo = hi


def _read(text):
    """(labels, nonzeros per row, 0-based indices, values) of the whole
    text, a str or a flat memoryview of bytes (see parse_libsvm)."""
    parts, lines = [], 0
    with _kernel.chars(text) as chars:
        reader = None if chars is None else _kernel.Reader(chars, len(text))
        for lo, hi in _blocks(text):
            breaks = None if reader is None else reader.read(lo, hi)
            if breaks is None:  # declined, or no in-place reader: numpy's
                block = text[lo:hi]
                block = (block.encode("ascii", "replace")
                         if isinstance(block, str) else block.tobytes())
                *part, breaks = _parse_block(block, lines)
                (parts.append if reader is None else reader.put)(part)
            lines += breaks
    if reader is not None:
        return reader.filled()
    return [np.concatenate(arrays)
            for arrays in zip(*parts or [[np.empty(0)] * 4])]


def parse_libsvm(source, d: int | None = None, name: str = "unnamed") -> Dataset:
    """Parse LIBSVM text ("label idx:val ...", 1-based indices).

    ``source`` is a str, ASCII bytes or any other bytes-like object
    (``bytearray``, ``memoryview``, ``mmap``, ...), or a file object.  Labels
    may follow any one of the conventions {-1,+1}, {0,1} or {1,2}; they are
    normalized to -1/+1 (0 -> -1, and for {1,2} files 2 -> -1).  Explicit
    zero values are dropped (they carry no information and sparse rows store
    nonzeros only).  The dimension is max(declared d, largest index + 1).
    Malformed input raises ParseError naming the first offending line.
    Numbers follow float()'s and int()'s rules, and contain no non-ASCII
    character.

    The text is read in blocks of whole lines, about _BLOCK characters
    each.  The compiled kernel reads a block when the block keeps to a
    strict subset of the format ("\n" line ends, tokens separated by
    spaces, plain-digit indices, decimal numbers; see ``_read.c``); any
    other block is tokenised and converted in bulk by numpy
    (``_parse_block``), which is also what names the errors.  Both give the
    same arrays, bit for bit.

    The text is read in one of two ways.  With the kernel loaded, a
    bytes-like object's bytes and an ASCII str's characters are read in
    place: the kernel counts the text's ':' bytes and its bytes below 0x1f,
    which hold every line end of both readers, the output arrays are
    allocated once with room for that many nonzeros and one row more than
    those bytes, and each block is read straight into them, or by numpy and
    copied in.  Otherwise (no kernel, or a str with a non-ASCII character)
    numpy reads every block and the blocks' arrays are concatenated.  A
    non-ASCII character reads as '?', which no token can hold, so such a
    str always raises ParseError.  A bytes-like object that is not
    C-contiguous is read from one contiguous copy.
    """
    with _text(source) as text:
        labels, counts, indices, values = _read(text)
    if not labels.size:
        raise ParseError("no data lines found")
    seen = set(np.unique(labels).tolist())
    for convention, negative in (({-1.0, 1.0}, -1.0), ({0.0, 1.0}, 0.0),
                                 ({1.0, 2.0}, 2.0)):
        if seen <= convention:
            break
    else:
        bad = sorted(seen - {-1.0, 0.0, 1.0, 2.0}) or sorted(seen)
        raise ParseError(f"unsupported label set (saw {bad})")
    dim = int(indices.max()) + 1 if indices.size else 0
    if d is not None:
        dim = max(dim, int(d))
    return Dataset(np.concatenate(([0], np.cumsum(counts))), indices, values,
                   np.where(labels == negative, -1.0, 1.0), d=dim, name=name)


def write_libsvm(dataset: Dataset) -> str:
    """Serialize with round-trip-exact float formatting (repr)."""
    ptr = dataset.indptr.tolist()
    keys = (dataset.indices + 1).tolist()
    vals = dataset.values.tolist()
    lines = []
    for lo, hi, label in zip(ptr, ptr[1:], dataset.y.tolist()):
        parts = ["+1" if label > 0 else "-1"]
        parts.extend(f"{k}:{v!r}" for k, v in zip(keys[lo:hi], vals[lo:hi]))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def subsample(dataset: Dataset, n_sub: int, seed: int) -> Dataset:
    """Uniform sample of n_sub rows without replacement, seed-deterministic.

    Partial Fisher-Yates on the index array; row order follows the draw.
    """
    n = dataset.n
    if not 1 <= n_sub <= n:
        raise ConfigError(f"need 1 <= n_sub <= {n}, got {n_sub}")
    name = f"{dataset.name}[n={n_sub}]"
    if n_sub == n:
        return Dataset(dataset.indptr, dataset.indices, dataset.values,
                       dataset.y, d=dataset.d, name=name)
    rng = Rng(seed, stream=20)
    pool = list(range(n))
    for i in range(n_sub):
        j = i + rng.below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    rows = np.array(pool[:n_sub])
    lo, hi = dataset.indptr[rows], dataset.indptr[rows + 1]
    indptr = np.concatenate(([0], np.cumsum(hi - lo)))
    take = np.repeat(lo - indptr[:-1], hi - lo) + np.arange(indptr[-1])
    return Dataset(indptr, dataset.indices[take], dataset.values[take],
                   dataset.y[rows], d=dataset.d, name=name)


def _standard_normals(rng: Rng, size: int) -> np.ndarray:
    """Box-Muller pairs from the stream's uniforms."""
    half = (size + 1) // 2
    u1 = (rng.u64_block(half) >> np.uint64(11)).astype(np.float64)
    u1 = (u1 + 1.0) * (1.0 / (1 << 53))  # (0, 1]
    u2 = rng.random_block(half)
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                          r * np.sin(2.0 * np.pi * u2)])
    return out[:size]


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Gaussian rows rescaled to a controlled norm spread, labels from a
    planted hyperplane with optional flip noise.

    Target norms ramp from _BASE_NORM to spread*_BASE_NORM following
    spread**(q**2) with q in [0, 1]: a quadratic ramp leaves most rows near
    the floor and a pronounced heavy tail, so max L_i / mean L_i grows
    with the spread (>= 5 at spread = 10).
    """
    n, d = spec.n, spec.d
    frng = Rng(spec.seed, stream=_STREAM_FEATURES)
    try:  # numpy refuses a block past the address space before filling it
        G = _standard_normals(frng, n * d).reshape(n, d)
    except (MemoryError, ValueError):
        raise ConfigError(f"n={n} by d={d} features cannot be "
                          "allocated") from None
    # avoid degenerate all-zero rows
    norms = np.sqrt((G * G).sum(axis=1))
    norms[norms == 0] = 1.0

    if n == 1:
        ramp = np.array([1.0])
    else:
        q = np.arange(n) / (n - 1)
        ramp = spec.spread ** (q * q)
    target = _BASE_NORM * ramp
    A = G * (target / norms)[:, None]

    prng = Rng(spec.seed, stream=_STREAM_PLANE)
    w_star = _standard_normals(prng, d)
    margins = A @ w_star
    labels = np.where(margins >= 0.0, 1.0, -1.0)

    if spec.noise_rate > 0.0:
        nrng = Rng(spec.seed, stream=_STREAM_NOISE)
        flips = nrng.random_block(n) < spec.noise_rate
        labels = np.where(flips, -labels, labels)

    values = A.ravel()
    # keep the sparse-row invariant: exact zeros are not representable
    values[values == 0.0] = 1e-12
    return Dataset(np.arange(0, n * d + 1, d), np.tile(np.arange(d), n),
                   values, labels, d=d,
                   name=f"synthetic(n={n},d={d},seed={spec.seed})")
