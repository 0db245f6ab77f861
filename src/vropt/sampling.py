"""Randomness: seedable counter-based PRNG streams, exact uniform index draws,
the Bernoulli snapshot schedule, and a static alias table for importance
sampling.

The generator is a SplitMix64-style counter generator (Steele/Lea/Flood
"Fast splittable pseudorandom number generators", mix variant 13): output k of
stream ``(seed, stream)`` is ``mix64(start + (k+1) * gamma)`` with a per-stream
odd ``gamma``.  All state is 64-bit integer arithmetic, so sequences are
bit-exact across platforms, and any contiguous block of draws can be produced
vectorized with numpy uint64 ops.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

from .errors import ConfigError, ContractError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 1.0 / (1 << 53)

# substream conventions used by the optimizers (see optim.py)
STREAM_INDEX = 0
STREAM_SNAPSHOT = 1
STREAM_OUTPUT = 2


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix_gamma(z: int) -> int:
    # odd gamma with enough bit transitions, as in SplittableRandom
    z = _mix64(z) | 1
    if bin(z ^ (z >> 1)).count("1") < 24:
        z ^= 0xAAAAAAAAAAAAAAAA
    return z & _MASK


def _mix64_block(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def check_int(value, field: str, error=ConfigError) -> int:
    """``value`` as a Python int (numpy integers too), else ``error``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{field} must be an integer, not {value!r}") from None


def is_real(value) -> bool:
    """Whether ``value`` is a real number (numpy floats too) and no bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_seed(seed, field: str = "seed", error=ConfigError) -> int:
    """``seed`` as a Python int; a non-integer, or one outside [0, 2**64)
    (which Rng would reduce onto another seed's streams), is ``error``."""
    seed = check_int(seed, field, error)
    if not 0 <= seed <= _MASK:
        raise error(f"{field}={seed} is not in [0, 2**64)")
    return seed


class Rng:
    """One deterministic 64-bit output stream, identified by (seed, stream).

    Distinct streams of one seed are independent substreams (distinct odd
    gammas put them on different orbits).  Scalar draws and block draws
    consume the same underlying sequence.
    """

    __slots__ = ("seed", "stream", "_start", "_gamma", "_ctr", "_bound_cache")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed = check_seed(seed, error=ContractError)
        self.stream = stream = check_int(stream, "stream", ContractError)
        sbase = _mix64(seed)
        tweak = _mix64(((stream & _MASK) + _GOLDEN) & _MASK)
        self._start = _mix64(sbase ^ tweak)
        self._gamma = _mix_gamma((sbase + tweak) & _MASK)
        self._ctr = 0
        self._bound_cache = (0, 0)

    def next_u64(self) -> int:
        self._ctr += 1
        return _mix64((self._start + self._ctr * self._gamma) & _MASK)

    def u64_block(self, size: int) -> np.ndarray:
        ks = np.arange(self._ctr + 1, self._ctr + size + 1, dtype=np.uint64)
        self._ctr += size
        with np.errstate(over="ignore"):
            z = np.uint64(self._start) + ks * np.uint64(self._gamma)
            return _mix64_block(z)

    def random(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _INV_2_53

    def random_block(self, size: int) -> np.ndarray:
        return (self.u64_block(size) >> np.uint64(11)) * _INV_2_53

    def _rejection_bound(self, n: int) -> int:
        cached_n, bound = self._bound_cache
        if cached_n != n:
            bound = (1 << 64) - ((1 << 64) % n)
            self._bound_cache = (n, bound)
        return bound

    def below(self, n: int) -> int:
        """Exactly uniform integer in [0, n) via rejection sampling."""
        if not 1 <= n <= 1 << 64:
            raise ContractError("below() requires 1 <= n <= 2**64")
        if n == 1:
            self._ctr += 1  # keep consumption uniform across n
            return 0
        bound = self._rejection_bound(n)
        while True:
            r = self.next_u64()
            if r < bound:
                return r % n

    def below_block(self, n: int, size: int) -> np.ndarray:
        """Block of exactly uniform integers in [0, n): the same values, and
        the same stream position after them, as ``size`` calls of below()."""
        if not 1 <= n <= 1 << 64:
            raise ContractError("below_block() requires 1 <= n <= 2**64")
        if n == 1:
            self._ctr += size
            return np.zeros(size, dtype=np.int64)
        rem = (1 << 64) % n
        bound = np.uint64((1 << 64) - rem) if rem else None  # None: no rejection
        out = np.empty(size, dtype=np.int64 if n <= 1 << 63 else np.uint64)
        filled = 0
        while filled < size:
            want = size - filled
            # oversample a little to cover rejections in one pass, usually
            raw = self.u64_block(want + (want >> 6) + 4)
            used = (np.arange(want) if bound is None
                    else np.flatnonzero(raw < bound)[:want])
            if used.size == want:  # give back the draws past the last one used
                self._ctr -= raw.size - 1 - int(used[-1])
            # n = 2**64, which no uint64 holds, keeps every draw as it is
            out[filled:filled + used.size] = (raw[used] if n == 1 << 64
                                              else raw[used] % np.uint64(n))
            filled += used.size
        return out


def split_run_streams(seed: int) -> tuple:
    """The per-run (index, snapshot, output) substreams of every optimizer.

    Index draws, snapshot coin flips and the output draw live on separate
    streams so that e.g. changing m leaves the i_t sequence untouched.
    """
    return tuple(Rng(seed, stream) for stream in
                 (STREAM_INDEX, STREAM_SNAPSHOT, STREAM_OUTPUT))


def draw_uniform_index(rng: Rng, n: int) -> int:
    """Uniformly sampled component index i in [0, n)."""
    return rng.below(n)


def draw_snapshot_flag(rng: Rng, m: int) -> int:
    """Bernoulli snapshot indicator: 1 with probability exactly 1/m.

    Implemented as a uniform draw in [0, m) compared against 0, so the
    probability is exactly 1/m and not a float approximation.
    """
    if m < 1:
        raise ContractError("draw_snapshot_flag() requires m >= 1")
    return 1 if rng.below(m) == 0 else 0


def snapshot_event_probability(m: int, t: int, t1: int) -> float:
    """Probability that the last snapshot at or before iteration t sits at t1.

    (1/m)(1-1/m)^(t-t1) for 1 <= t1 <= t, and (1-1/m)^t for t1 = 0 (no
    snapshot drawn in 1..t).
    """
    if m < 1:
        raise ContractError("m must be >= 1")
    if t1 < 0 or t1 > t:
        raise ContractError("need 0 <= t1 <= t")
    q = 1.0 - 1.0 / m
    if t1 == 0:
        return q ** t
    return (1.0 / m) * q ** (t - t1)


class ImportanceTable:
    """Static sampling distribution p_i = L_i / sum_j L_j over the
    per-component smoothness constants, with an alias table for O(1) draws.

    ``weights[i]`` caches n * p_i, the importance-sampling denominator of the
    estimator increment.
    """

    __slots__ = ("p", "weights", "_alias", "_accept")

    def __init__(self, lipschitz):
        li = np.asarray(lipschitz, dtype=np.float64)
        if li.ndim != 1 or li.size == 0:
            raise ConfigError("need a non-empty 1-D list of constants")
        if not np.all(li > 0):
            raise ConfigError("all per-component constants must be > 0")
        self.p = p = li / li.sum()
        self.weights = p.size * p
        self._alias, self._accept = _build_alias(p)

    @property
    def n(self) -> int:
        return self.p.size

    def draw(self, rng: Rng) -> int:
        k = rng.below(self.n)
        q = self._accept[k]
        if q >= 1.0:
            # certain bucket: no accept coin needed (this also keeps the draw
            # sequence aligned with plain uniform sampling when p is uniform)
            return k
        return k if rng.random() < q else self._alias[k]

    def alias_table(self):
        """(accept, alias): ``draw`` keeps a uniform k when accept[k] >= 1
        or a uniform coin falls below accept[k], else returns alias[k]."""
        return self._accept, self._alias


def _build_alias(p: np.ndarray):
    """Vose's alias method.  Leftover buckets are certain (q = 1) up to
    floating-point residue, as usual."""
    n = p.size
    accept = p * n
    alias = np.arange(n, dtype=np.int64)
    small = [i for i in range(n) if accept[i] < 1.0]
    large = [i for i in range(n) if accept[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        alias[s] = l
        accept[l] = (accept[l] + accept[s]) - 1.0
        if accept[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    for i in small:
        accept[i] = 1.0
    for i in large:
        accept[i] = 1.0
    return alias, accept
