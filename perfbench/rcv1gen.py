"""rcv1-shaped sparse classification data, written as LIBSVM text.

The shape follows rcv1.binary (train split, as distributed with LIBSVM):
n = 20242 rows, d = 47236 columns, about 74 nonzeros per row.
Row lengths vary (log-normal), column popularity is skewed (Zipf-like, over
a shuffled column order), values are positive and every row has unit L2
norm, and labels come from a planted hyperplane thresholded at its median,
so the classes are balanced.

The column skew matters for sparse optimizers: it sets how often a lazily
updated coordinate recurs.  Generation uses numpy's PCG64 stream, not the
library's generator, so the inputs do not change when the library does.

Only n, d and the mean row length are rcv1's published figures.  NNZ_SIGMA,
ZIPF_S and LABEL_NOISE are assumptions, not measured on rcv1: an exponent
near 1 is Zipf's law for word frequencies, applied here to the number of
documents a term occurs in.  They are to be calibrated against the real file
(its row-length spread and its document-frequency slope, the statistic
``realized_stats`` reports as ``zipf_slope``) once it is available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_ROWS = 20242
N_COLS = 47236
MEAN_NNZ = 74.0
NNZ_SIGMA = 0.6      # log-normal spread of row lengths (assumed)
ZIPF_S = 1.0         # column popularity ~ 1 / rank**ZIPF_S (assumed)
LABEL_NOISE = 0.05   # share of labels flipped (assumed)
ZIPF_SLOPE_TOL = 0.1


@dataclass(frozen=True)
class Rcv1Shape:
    n: int = N_ROWS
    d: int = N_COLS
    mean_nnz: float = MEAN_NNZ


@dataclass(frozen=True)
class Rcv1Stats:
    n: int
    d: int
    mean_nnz: float
    positive_share: float
    zipf_slope: float    # nan when too few columns are in the fitted range
    text_mb: float


def generate_text(seed: int, shape: Rcv1Shape = Rcv1Shape()) -> str:
    """LIBSVM text of one rcv1-shaped instance; the same seed gives the same
    bytes.  Formatting matches ``vropt.data.write_libsvm`` exactly."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n, d = shape.n, shape.d
    # log-normal lengths with the requested mean: E = exp(mu + sigma^2/2)
    mu = np.log(shape.mean_nnz) - 0.5 * NNZ_SIGMA ** 2
    lengths = np.clip(np.rint(rng.lognormal(mu, NNZ_SIGMA, n)),
                      1, d // 4).astype(np.int64)
    popularity = np.cumsum(1.0 / np.arange(1, d + 1) ** ZIPF_S)
    cdf = popularity / popularity[-1]
    column_of_rank = rng.permutation(d)
    w_star = rng.standard_normal(d)

    rows = []
    for k in lengths:
        # successive sampling without replacement: first k distinct draws
        picked = np.empty(0, dtype=np.int64)
        while picked.size < k:
            draws = np.searchsorted(cdf, rng.random(2 * k + 8), side="right")
            draws = np.concatenate([picked, draws])
            _, first = np.unique(draws, return_index=True)
            picked = draws[np.sort(first)[:k]]
        cols = np.sort(column_of_rank[picked])
        vals = rng.exponential(1.0, k) + 1e-3
        vals /= np.sqrt(vals @ vals)
        rows.append((cols, vals))

    margins = np.array([vals @ w_star[cols] for cols, vals in rows])
    labels = np.where(margins > np.median(margins), 1, -1)
    flips = rng.random(n) < LABEL_NOISE
    labels = np.where(flips, -labels, labels)

    lines = []
    for (cols, vals), lab in zip(rows, labels):
        parts = ["+1" if lab > 0 else "-1"]
        parts.extend(f"{c + 1}:{v!r}" for c, v in zip(cols.tolist(), vals.tolist()))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def zipf_slope(doc_freq: np.ndarray, n: int) -> float:
    """Slope of log(document frequency) against log(rank).

    The fit covers the columns that occur in 20 to 0.02 n rows: enough rows
    for a steady count, and few enough that drawing a row's columns without
    replacement does not flatten the curve.  A popularity ~ 1 / rank**s
    gives a slope near -s.  nan when fewer than 50 columns are in range.
    """
    freq = np.sort(doc_freq)[::-1].astype(np.float64)
    rank = np.arange(1, freq.size + 1, dtype=np.float64)
    keep = (freq >= 20) & (freq <= 0.02 * n)
    if keep.sum() < 50:
        return float("nan")
    slope, _ = np.polyfit(np.log(rank[keep]), np.log(freq[keep]), 1)
    return float(slope)


def realized_stats(dataset, text: str) -> Rcv1Stats:
    """Shape statistics of a parsed instance."""
    cols = np.concatenate([r.indices for r in dataset.rows])
    labels = dataset.labels()
    return Rcv1Stats(
        n=dataset.n,
        d=dataset.d,
        mean_nnz=cols.size / dataset.n,
        positive_share=float((labels > 0).mean()),
        zipf_slope=zipf_slope(np.bincount(cols, minlength=dataset.d),
                              dataset.n),
        text_mb=len(text) / 1e6,
    )


def shape_problems(stats: Rcv1Stats, shape: Rcv1Shape = Rcv1Shape()) -> list:
    """Ways the realized instance misses the requested shape (empty if none)."""
    problems = []
    if stats.n != shape.n:
        problems.append(f"n={stats.n}, want {shape.n}")
    if stats.d != shape.d:
        problems.append(f"d={stats.d}, want {shape.d}")
    if abs(stats.mean_nnz - shape.mean_nnz) > 0.05 * shape.mean_nnz:
        problems.append(f"mean nnz {stats.mean_nnz:.1f}, want ~{shape.mean_nnz}")
    if not 0.45 <= stats.positive_share <= 0.55:
        problems.append(f"positive share {stats.positive_share:.3f}")
    if not abs(stats.zipf_slope + ZIPF_S) <= ZIPF_SLOPE_TOL:
        problems.append(f"column popularity slope {stats.zipf_slope:.3f}, "
                        f"want ~{-ZIPF_S}")
    return problems
