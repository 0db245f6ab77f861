"""Dataset builders shared by test modules (importable, unlike conftest)."""

import numpy as np

from vropt.data import Dataset
from vropt.model import SparseRow


def make_homogeneous_dataset(n=16, d=24, nnz=4, value=1.5):
    """Rows with identical value multiset (hence bit-identical ||a_i||^2 and
    L_i) at shifted column positions.  Used by the exact-reduction tests."""
    rows = []
    for i in range(n):
        idx = np.sort((i + 3 * np.arange(nnz)) % d).astype(np.int64)
        rows.append(SparseRow(indices=idx,
                              values=np.full(nnz, value),
                              label=1.0 if i % 2 == 0 else -1.0))
    return Dataset(rows=tuple(rows), d=d, name="homogeneous")
