"""A plain left-to-right reduction of dict columns, with no shortcut, as the
reference for `linalg.sparse_rank`, and conversions between dense arrays
and `linalg.Csc`."""

import numpy as np

from swanss.linalg import Csc


def csc_of(a: np.ndarray, p: int) -> Csc:
    """The `Csc` of the dense matrix `a`, its entries taken mod p."""
    a = np.mod(np.asarray(a, dtype=np.int64), p)
    cols, rows = a.T.nonzero()  # column by column, rows increasing
    indptr = np.zeros(a.shape[1] + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=a.shape[1]), out=indptr[1:])
    return Csc(indptr, rows.astype(np.intp), a[rows, cols])


def dense_of(matrix: Csc, nrows: int) -> np.ndarray:
    """`matrix` as a dense int64 array with `nrows` rows."""
    indptr, rows, values = matrix
    out = np.zeros((nrows, len(indptr) - 1), dtype=np.int64)
    out[rows, np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))] = values
    return out


def _axpy(y: dict, f: int, x: dict, p: int) -> dict:
    """y - f·x over F_p, without zero entries."""
    out = {i: (y.get(i, 0) - f * x.get(i, 0)) % p for i in set(y) | set(x)}
    return {i: v for i, v in out.items() if v}


def reference_reduction(matrix: Csc, p: int, cleared=(), record: bool = False):
    """The left-to-right reduction of `matrix`, the columns in `cleared`
    taken as zero: ({pivot row: (R column, V column or None)}, the V
    columns of the other columns that reduce to zero, in column order)."""
    indptr, rows, values = matrix
    cleared = set(int(i) for i in cleared)
    pivots, kernel = {}, []
    for j in range(len(indptr) - 1):
        if j in cleared:
            continue
        a, b = indptr[j], indptr[j + 1]
        col = {int(r): int(v) % p for r, v in zip(rows[a:b], values[a:b]) if v % p}
        op = {j: 1} if record else None
        while col and max(col) in pivots:
            r, v = pivots[max(col)]
            f = col[max(col)] * pow(r[max(col)], p - 2, p) % p
            col = _axpy(col, f, r, p)
            if record:
                op = _axpy(op, f, v, p)
        if col:
            pivots[max(col)] = (col, op)
        elif record:
            kernel.append(op)
    return pivots, kernel
