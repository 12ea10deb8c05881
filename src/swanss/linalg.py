"""Exact dense linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries kept as canonical
representatives in [0, p).  Every product goes through `matmul_mod`: one
float64 BLAS product reduced mod p, exact because with p <= 251 every
partial sum is an integer far below 2^53 (the word-size approach of
Dumas, Giorgi and Pernet, "FFLAS and FFPACK", ACM TOMS 2008).

There is one elimination, `_eliminate`: panels of columns reduced pivot by
pivot, each followed by one block Gauss-Jordan step, a single `matmul_mod`
update of the rows and columns it changes.  `rref_mod`, `kernel_mod`,
`column_echelon_mod` and `FactoredSolve` are built on it; the reduced row
echelon form is unique, so their results are canonical.  `FactoredSolve`
keeps the float64 transform of the reduction and solves any number of
right-hand sides with one product.

A small sparse elimination (`sparse_rank`) is provided for the few places
where dense storage would be wasteful (total-complex ranks, Betti numbers
of large quotient complexes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantError

MAX_PRIME = 251
# Columns per panel of the blocked elimination.  A pivot costs rows x
# PANEL inside its panel, and wider panels make fewer, larger block steps;
# 32 measured fastest on the sparse coboundary matrices swanss reduces.
PANEL = 32
# float64 represents every integer below this exactly.
_EXACT_LIMIT = 2**53


def is_prime(p: int) -> bool:
    """Trial-division primality check (p is tiny here)."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldP:
    """The prime field F_p, p prime and at most MAX_PRIME."""

    p: int

    def __post_init__(self):
        # the bound first: trial division of a huge modulus would not finish
        if self.p > MAX_PRIME:
            raise ValueError(f"modulus {self.p} exceeds supported bound {MAX_PRIME}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(x, self.p - 2, self.p)


def _is_int(value) -> bool:
    """A JSON integer (Python's bool is an int, JSON's true is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_array(entries, p: int) -> np.ndarray:
    a = np.asarray(entries, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    return np.mod(a, p)


def matmul_mod(a, b, p: int) -> np.ndarray:
    """(a @ b) mod p as one float64 BLAS product.

    Entries of `a` and `b` must be integers of absolute value below p.
    Every partial sum is then an integer of size at most
    inner * (p - 1)^2, which float64 holds exactly while that stays below
    2^53; past it the product is refused.  Returns float64 entries in
    [0, p).
    """
    inner = np.shape(a)[-1]
    if inner * (p - 1) ** 2 >= _EXACT_LIMIT:
        raise ValueError(
            f"inner dimension {inner} is too large for an exact float64 product mod {p}"
        )
    return np.mod(np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64), p)


def _eliminate(r: np.ndarray, p: int, ncols: int) -> tuple[int, ...]:
    """Reduce `r` in place to reduced row echelon form over F_p.

    Pivots are searched in columns < ncols only; later columns are carried
    along.  Columns are taken in panels of PANEL.  In a panel the per-pivot
    Gauss-Jordan step runs on the rows without a pivot yet and on the panel
    columns alone, and records the multiples of the panel's pivot rows
    that every such row received; on the pivot rows those multiples are
    the inverse of the pivot block B.  One block step then brings the whole
    matrix along: the pivot rows become B^-1 times themselves and every
    other row loses its pivot-column entries times them, as a single
    matmul_mod update of the rows that change.  When no row lies above
    the panel and no column lies past it, the panel step alone is the
    whole reduction and works on `r` directly.
    """
    m, width = r.shape
    pivots = []
    row = 0
    for c0 in range(0, ncols, PANEL):
        if row == m:
            break
        c1 = min(c0 + PANEL, ncols)
        w = c1 - c0
        top = row
        block = top > 0 or c1 < width
        # panel of the rows without a pivot, then the multipliers of its pivot rows
        if block:
            work = np.zeros((m - top, 2 * w), dtype=r.dtype)
            work[:, :w] = r[top:, c0:c1]
        else:
            work = r[:, c0:c1]
        for j in range(w):
            at = row - top
            if at == len(work):
                break
            nz = work[at:, j].nonzero()[0]
            if nz.size == 0:
                continue
            i = at + int(nz[0])
            if i != at:
                work[[at, i]] = work[[i, at]]
                if block:
                    r[[row, top + i]] = r[[top + i, row]]
            if block:
                work[at, w + at] = 1
            # the pivot row is zero left of column j
            inv = pow(int(work[at, j]), p - 2, p)
            if inv != 1:
                work[at, j:] = (work[at, j:] * inv) % p
            others = work[:, j].nonzero()[0]
            others = others[others != at]
            if others.size:
                work[others, j:] = (work[others, j:] - np.outer(work[others, j], work[at, j:])) % p
            pivots.append(c0 + j)
            row += 1
        k = row - top
        if not block or k == 0:
            continue
        # every row gains multiples[i] @ (the panel's pivot rows as they
        # were); the pivot rows are rebuilt from zero as B^-1 times them
        multiples = work[:, w : w + k]
        if top:
            above = matmul_mod(r[:top, pivots[-k:]], multiples[:k], p)
            multiples = np.concatenate([-above.astype(r.dtype), multiples])
        pivot_rows = r[top:row, c0:].copy()
        r[top:row, c0:] = 0
        changed = multiples.any(axis=1).nonzero()[0]
        cols = c0 + pivot_rows.any(axis=0).nonzero()[0]
        update = matmul_mod(multiples[changed], pivot_rows[:, cols - c0], p)
        cells = np.ix_(changed, cols)
        r[cells] = np.mod(r[cells] + update, p)
    return tuple(pivots)


def rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of `a` over F_p; returns (R, pivot columns)."""
    r = np.mod(np.asarray(a, dtype=np.int64), p)
    if r.size == 0:
        return r, ()
    return r, _eliminate(r, p, r.shape[1])


def rank_mod(a: np.ndarray, p: int) -> int:
    return len(rref_mod(a, p)[1])


def kernel_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of the right kernel of `a`, as columns."""
    r, pivots = rref_mod(a, p)
    n = r.shape[1]
    if not pivots:
        return np.eye(n, dtype=np.int64)
    free = np.ones(n, dtype=bool)
    free[list(pivots)] = False
    k = np.zeros((n, n - len(pivots)), dtype=np.int64)
    k[free] = np.eye(n - len(pivots), dtype=np.int64)
    k[~free] = np.mod(-r[: len(pivots), free], p)
    return column_echelon_mod(k, p)


def column_echelon_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical column-echelon basis of the column space of `a`.

    Equal column spans yield byte-identical results, so this is used as
    the subspace identity everywhere.
    """
    r, pivots = rref_mod(np.asarray(a, dtype=np.int64).T, p)
    return r[: len(pivots)].T.copy()


class FactoredSolve:
    """Cached row reduction of `a` for solving a·x = b repeatedly.

    Stores E with E·a = R in rref, as float64, found by one elimination of
    [a | I] with the pivot search limited to the a block.  A solve is one
    matmul_mod with E plus a consistency check on the rows of E past the
    rank, for any number of right-hand sides at once.
    """

    def __init__(self, a: np.ndarray, p: int):
        a = np.asarray(a)
        m, n = a.shape
        buf = np.zeros((m, n + m))
        buf[:, :n] = np.mod(a, p)
        buf[:, n:] = np.eye(m)
        self.p = p
        self.shape = (m, n)
        self.pivots = _eliminate(buf, p, n)
        self._pivot_rows = np.array(self.pivots, dtype=np.intp)
        self.transform = buf[:, n:].copy()

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _solve(self, b: np.ndarray) -> np.ndarray | None:
        y = matmul_mod(self.transform, np.mod(b.astype(np.float64), self.p), self.p)
        if y[self.rank :].any():
            return None
        x = np.zeros((self.shape[1],) + y.shape[1:], dtype=np.int64)
        x[self._pivot_rows] = y[: self.rank]
        return x

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        """One solution of a·x = b with free variables 0, or None."""
        return self._solve(np.asarray(b).reshape(self.shape[0]))

    def solve_many(self, b: np.ndarray) -> np.ndarray | None:
        """Solve a·X = b for the m×k matrix b; None if any column is inconsistent."""
        b = np.asarray(b)
        return self._solve(b if b.ndim == 2 else b.reshape(self.shape[0], -1))


class PrimeFieldMatrix:
    """Immutable dense matrix over F_p."""

    __slots__ = ("field", "a")

    def __init__(self, p: int | FieldP, entries):
        field = p if isinstance(p, FieldP) else FieldP(p)
        a = _as_array(entries, field.p)
        a.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", a)

    def __setattr__(self, *_):
        raise AttributeError("PrimeFieldMatrix is immutable")

    # -- constructors ------------------------------------------------
    @classmethod
    def zeros(cls, p, rows: int, cols: int) -> "PrimeFieldMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p, n: int) -> "PrimeFieldMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

    # -- basic protocol ----------------------------------------------
    @property
    def p(self) -> int:
        return self.field.p

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def __repr__(self):
        return f"PrimeFieldMatrix(p={self.p}, shape={self.shape})"

    def __eq__(self, other):
        return (
            isinstance(other, PrimeFieldMatrix)
            and self.p == other.p
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self):
        return hash((self.p, self.shape, self.a.tobytes()))

    def _wrap(self, a: np.ndarray) -> "PrimeFieldMatrix":
        return PrimeFieldMatrix(self.field, a)

    def _check_same_field(self, other: "PrimeFieldMatrix"):
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        self._check_same_field(other)
        return self._wrap(self.a + other.a)

    def __sub__(self, other):
        self._check_same_field(other)
        return self._wrap(self.a - other.a)

    def __neg__(self):
        return self._wrap(-self.a)

    def __mul__(self, scalar: int):
        return self._wrap(self.a * (scalar % self.p))

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return self._wrap(matmul_mod(self.a, other.a, self.p))

    def __pow__(self, e: int):
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        out = np.eye(self.rows)
        base = self.a
        while e:
            if e & 1:
                out = matmul_mod(out, base, self.p)
            base = matmul_mod(base, base, self.p)
            e >>= 1
        return self._wrap(out)

    @property
    def T(self) -> "PrimeFieldMatrix":
        return self._wrap(self.a.T)

    def is_zero(self) -> bool:
        return not np.any(self.a)

    # -- reductions ----------------------------------------------------
    def rref(self) -> tuple["PrimeFieldMatrix", tuple[int, ...]]:
        r, pivots = rref_mod(self.a, self.p)
        return self._wrap(r), pivots

    def rank(self) -> int:
        return rank_mod(self.a, self.p)

    def kernel_basis(self) -> "PrimeFieldMatrix":
        return self._wrap(kernel_mod(self.a, self.p))

    def image_basis(self) -> "PrimeFieldMatrix":
        return self._wrap(column_echelon_mod(self.a, self.p))

    def column_echelon(self) -> "PrimeFieldMatrix":
        return self._wrap(column_echelon_mod(self.a, self.p))

    def solve(self, b) -> np.ndarray | None:
        """One solution x of self·x = b, or None if b is outside the image."""
        return FactoredSolve(self.a, self.p).solve(np.asarray(b, dtype=np.int64))


class Subquotient:
    """A subquotient span(Z)/span(B) with canonical representatives.

    Representatives are the columns of Z that add pivots to a row
    reduction of [B | Z]; coordinates of a vector are taken against
    [B | reps] with the B-part discarded.
    """

    def __init__(self, z: np.ndarray, b: np.ndarray, p: int):
        self.p = p
        n = z.shape[0]
        if b.shape[0] != n:
            raise ValueError("ambient dimensions differ")
        z = np.mod(np.asarray(z, dtype=np.int64), p)
        b = np.mod(np.asarray(b, dtype=np.int64), p)
        self.ambient_dim = n
        self.z = column_echelon_mod(z, p)
        self.b = column_echelon_mod(b, p)
        bdim = self.b.shape[1]
        joint, pivots = rref_mod(np.concatenate([self.b, self.z], axis=1), p)
        # the columns of b are independent, so each is a pivot, and the rest
        # number dim Z - dim B exactly when B lies in span Z
        rep_cols = [c - bdim for c in pivots if c >= bdim]
        self.reps = self.z[:, rep_cols].copy()
        self.dim = len(rep_cols)
        if self.dim != self.z.shape[1] - bdim:
            raise InvariantError("linalg.subquotient", "B is not contained in the span of Z")

    @cached_property
    def _solver(self) -> FactoredSolve:
        # factored on first use: most page subquotients are never solved against
        return FactoredSolve(np.concatenate([self.b, self.reps], axis=1), self.p)

    def decompose(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write v = B·xi_b + reps·xi_r; raises if v is outside span(Z)."""
        sol = self._solver.solve(v)
        if sol is None:
            raise ValueError("vector is not in the span of Z")
        bdim = self.b.shape[1]
        return sol[:bdim], sol[bdim:]

    def coordinates(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of [v] in the canonical representative basis."""
        return self.decompose(v)[1]

    def coordinates_many(self, vs: np.ndarray) -> np.ndarray:
        """Coordinates of the classes of the columns of `vs`, as columns."""
        if vs.shape[1] == 0:
            return np.zeros((self.dim, 0), dtype=np.int64)
        sol = self._solver.solve_many(vs)
        if sol is None:
            raise ValueError("vector is not in the span of Z")
        return sol[self.b.shape[1] :]

    def contains(self, v: np.ndarray) -> bool:
        return self._solver.solve(v) is not None

    def lift(self, coords: np.ndarray) -> np.ndarray:
        coords = np.mod(np.asarray(coords, dtype=np.int64).reshape(self.dim), self.p)
        return matmul_mod(self.reps, coords, self.p).astype(np.int64)


def sparse_rank(columns, p: int) -> int:
    """Rank over F_p of a matrix given as an iterable of {row: value} dicts.

    Standard left-to-right reduction keyed on the largest row index of
    each column; only fill-in actually touched is paid for.
    """
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        col = {r: v % p for r, v in col.items() if v % p}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                rank += 1
                break
            f = (col[low] * pow(piv[low], p - 2, p)) % p
            for r, v in piv.items():
                nv = (col.get(r, 0) - f * v) % p
                if nv:
                    col[r] = nv
                else:
                    col.pop(r, None)
        # fully reduced to zero: contributes nothing
    return rank
