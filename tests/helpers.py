"""Dataset builders and the kernel's block reader, shared by test modules
(importable, unlike conftest)."""

import numpy as np

from vropt import _kernel
from vropt.data import Dataset


def make_homogeneous_dataset(n=16, d=24, nnz=4, value=1.5):
    """Rows with identical value multiset (hence bit-identical ||a_i||^2 and
    L_i) at shifted column positions.  Used by the exact-reduction tests."""
    indices = np.concatenate(
        [np.sort((i + 3 * np.arange(nnz)) % d) for i in range(n)])
    return Dataset(np.arange(n + 1) * nnz, indices, np.full(n * nnz, value),
                   np.where(np.arange(n) % 2 == 0, 1.0, -1.0), d=d,
                   name="homogeneous")


def make_sparse_dataset(n=300, d=1024, nnz=12, seed=0, scale=1.0):
    """Random rows of ``nnz`` nonzeros each over ``d`` columns, values of
    size about ``scale`` / sqrt(nnz): sparse enough that the recursive
    optimizers take their lazy O(nnz) inner steps."""
    rng = np.random.default_rng(seed)
    indices = np.concatenate(
        [np.sort(rng.choice(d, nnz, replace=False)) for _ in range(n)])
    values = scale * (0.1 + rng.random(n * nnz)) / np.sqrt(nnz)
    return Dataset(indptr=np.arange(n + 1, dtype=np.int64) * nnz,
                   indices=indices.astype(np.int64), values=values,
                   y=np.where(rng.random(n) < 0.5, 1.0, -1.0), d=d,
                   name="sparse")


def read_block(block):
    """``vropt.data._parse_block(block, 0)``'s tuple (labels, nonzeros per
    row, 0-based indices, values, line breaks) as the kernel's ``Reader``
    reads the bytes-like ``block``, or None when no kernel is loaded or the
    block is outside its grammar."""
    if _kernel.lib is None:
        return None
    with _kernel.ffi.from_buffer(block) as view:
        reader = _kernel.Reader(view, len(view))
        breaks = reader.read(0, len(view))
    return None if breaks is None else (*reader.filled(), breaks)
