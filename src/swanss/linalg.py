"""Exact dense linear algebra over a prime field F_p.

There is no matrix class: a matrix is a numpy int64 array with entries
kept as canonical representatives in [0, p), and the prime p is a plain
int passed to every function, validated by `check_modulus` where it
enters the program.  Every product goes through `matmul_mod`: one float64
BLAS product reduced mod p, exact because with p <= 251 every partial sum
is an integer far below 2^53 (the word-size approach of Dumas, Giorgi and
Pernet, "FFLAS and FFPACK", ACM TOMS 2008).  It returns float64, so a
product that is stored is converted back to int64.

There is one elimination, `_eliminate`: Gauss-Jordan pivot by pivot on
whole rows.  `rref_mod` (and so `rank_mod`, `kernel_mod` and
`column_echelon_mod`) and `FactoredSolve` are the only callers; the
reduced row echelon form is unique, so their results are canonical.
`FactoredSolve` keeps the float64 transform of the reduction and solves
any number of right-hand sides with one product.  The dense matrices of
an analysis (page-cell differentials, module actions, pairings, the Swan
differential transferred onto cohomology) are no wider than a few
cohomology groups; the maps of the complexes themselves are reduced
sparse.

A `Subquotient` span Z / span B (a page cell, a group cohomology) works
in the lead coordinates of Z.  Its z is a canonical column-echelon basis,
so z[lead] = I_k on the rows where its columns start, and v in span Z is
v = z·v[lead].  B and every vector it is asked about are checked to lie
in span Z, v[rest] = z[rest]·v[lead] on the other rows, with one exact
product; everything else happens on the k lead rows.
[b | z] = z·[b[lead] | I_k] with z injective, so the one `FactoredSolve`
of the k-row [b[lead] | I_k] has the pivots and the solutions that a
factor of the n-row [b | z] would: the representatives, the basis of B
and the coordinates of classes are all read off it.

`kernel_mod` needs one elimination: reducing the columns from the last one
leaves free exactly the positions where some kernel vector has its first
nonzero entry, so the kernel basis that is the identity there is already
the canonical column-echelon basis.

Sparse elimination serves the places where dense storage would be
wasteful: Betti numbers of fixed sets and of the orbit cells of a
quotient (`complexes.quotient_numbers`), and the
cohomology of a cochain complex, which is read off one reduction of
its face table per degree (`complexes.CohomologyBasis`).  A sparse
matrix is a `Csc`, numpy arrays of column pointers, rows and values,
built from face tables and permutations without a Python loop.
`sparse_rank` reduces it left to right: each column in turn loses multiples of the reduced columns
before it until it is zero or its lowest row is the lowest row of no
earlier column, its pivot row.  On request it records every column
operation as well (R = D·V, V unit upper triangular).
Callers ranking consecutive maps of a complex read the pivot rows to clear
the next map (Chen and Kerber, "Persistent homology computation with a
twist", EuroCG 2011; Bauer, Kerber and Reininghaus, "Clear and compress",
2014).  A reduced column of d_s is a combination of columns of d_s, so
d_(s+1) maps it to zero; its last nonzero entry is at its pivot row i, so
column i of d_(s+1) is a combination of the columns before it.  Taking
that column as zero skips its reduction and leaves the rank as it is.

Clearing is exact only when d_(s+1) o d_s = 0.  The maps reduced with
it, and where that is checked or proved:
- the coboundaries delta_l of a cochain complex (`complexes`, its
  cohomology): `EquivariantCochainComplex` checks delta o delta = 0 on
  its face tables;
- the boundaries ranked for Betti numbers, of any complex (the fixed
  sets) and of the orbit cells of a quotient: `complexes._betti` checks
  them before it reduces them.

Most columns need no work.  Call column j *apparent* when it is the
leftmost column with an entry in its own lowest row r.  An apparent column
is final: it is a pivot with R_j = D_j and V_j = e_j.  A reduced column
i < j, and every state of it during its reduction, is D_i minus multiples
of reduced columns before it, so by induction it lies in the span of the
columns D_0..D_i, all of which are zero at row r.  So no column before j
ever has r as its lowest row: there is no pivot at r when column j comes,
and no column before j looks row r up.  The columns after j that reach row
r are reduced by D_j as in the plain reduction.  One numpy pass finds
every apparent column: the lowest row of each column (the last of its
increasing rows, a segmented max) and the leftmost column of each row, as
the first entry of that row in column order (`np.minimum.at`).  The pass
does not skip the columns taken as zero by clearing.  That could only make
it find fewer apparent columns, and it finds none fewer: such a column is
a combination of the columns before it, so it holds the first entry of no
row.  The apparent columns become pivots at once; they are the apparent
pairs of Bauer ("Ripser", J. Appl. Comput. Topol. 2021), here without a
filtration.  Only the other columns go through the one Python loop,
`SparseReduction.reduce`, as {row: value} dicts.  The loop keeps the
rows of its working column in a max-heap with lazy deletion too, as
Ripser keeps its working column in a priority queue, so a step finds the
lowest row without scanning the column; the dict keeps the values.  The
pass runs on every matrix, as in Ripser: on a small one its fixed numpy
cost about equals the loop steps it saves.  An apparent pivot is built as
a dict, R_j from its CSC slice and V_j = e_j, only when a column, or a
cochain of `complexes.CohomologyBasis`, is reduced against it.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush
from typing import NamedTuple

import numpy as np

from .errors import InvariantError

MAX_PRIME = 251
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


def check_modulus(p: int) -> int:
    """p itself if it is a prime at most MAX_PRIME; ValueError otherwise."""
    # the bound first: trial division of a huge modulus would not finish
    if p > MAX_PRIME:
        raise ValueError(f"modulus {p} exceeds supported bound {MAX_PRIME}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def _is_int(value) -> bool:
    """A JSON integer (Python's bool is an int, JSON's true is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


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
    along.  For each such column j the first nonzero row at or below the
    next pivot row is swapped up and scaled to 1, and one outer-product
    update clears column j from every other row, on columns j onward: the
    pivot row is zero left of j.
    """
    m = r.shape[0]
    pivots = []
    for j in range(ncols):
        row = len(pivots)
        if row == m:
            break
        nz = r[row:, j].nonzero()[0]
        if nz.size == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            r[[row, i]] = r[[i, row]]
        inv = pow(int(r[row, j]), p - 2, p)
        if inv != 1:
            r[row, j:] = (r[row, j:] * inv) % p
        others = r[:, j].nonzero()[0]
        others = others[others != row]
        if others.size:
            r[others, j:] = (r[others, j:] - np.outer(r[others, j], r[row, j:])) % p
        pivots.append(j)
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
    """Canonical basis of the right kernel of `a`, as columns.

    One elimination of the columns in reverse order.  Column j of `a` is
    left free exactly when it lies in the span of the columns after it,
    that is, when some kernel vector has its first nonzero entry at j.
    The basis vector of free column j is 1 at j, 0 at the other free
    positions, and nonzero only at pivots after j, since a reduced free
    column has entries only in the rows of earlier (reversed) pivots.  So
    its first nonzero entry is a 1 at j where every other basis vector is
    0: the columns, ordered by j, are the canonical column-echelon basis.
    """
    r, pivots = rref_mod(np.asarray(a)[:, ::-1], p)
    n = r.shape[1]
    if not pivots:
        return np.eye(n, dtype=np.int64)
    free = np.ones(n, dtype=bool)
    free[list(pivots)] = False
    k = np.zeros((n, n - len(pivots)), dtype=np.int64)
    k[free] = np.eye(n - len(pivots), dtype=np.int64)
    k[~free] = np.mod(-r[: len(pivots), free], p)
    return np.ascontiguousarray(k[::-1, ::-1])


def column_echelon_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical column-echelon basis of the column space of `a`.

    Equal column spans yield byte-identical results, so two bases span the
    same subspace exactly when their echelon bases are equal.  `kernel_mod`
    returns this form directly, and `Subquotient` checks it of its z.
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
        # reduced straight into the buffer: no integer temporary of a's size
        np.mod(a, p, out=buf[:, :n], casting="unsafe")
        buf.reshape(-1)[n :: n + m + 1] = 1  # the entries (i, n + i)
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


class Subquotient:
    """A subquotient span(Z)/span(B) with canonical representatives, read
    off one factorization (`FactoredSolve`) of [b[lead] | I_k].

    `z` must be a basis in the canonical column-echelon form, as
    `kernel_mod` returns it; anything else raises `InvariantError` at
    `linalg.subquotient`.  Its k columns have their first nonzero entries
    at rows lead[0] < ... < lead[k-1], and z[lead] = I_k: restricting to
    the lead rows maps span Z isomorphically onto F_p^k, and v lies in
    span Z exactly when v[rest] = z[rest]·v[lead] on the other rows, with
    v = z·v[lead].  `b` is any generating set of B, such as the page
    differential whose image B is.  B lies in span Z exactly when
    b[rest] = z[rest]·b[lead], which is checked with one product.  Then
    [b | z] = z·[b[lead] | I_k] with z injective, so the two matrices have
    the same column dependencies: the factor of the k-row matrix has the
    pivots, and gives the solutions, that a factor of the n-row [b | z]
    would.  The reduced row echelon form of a column prefix is the prefix
    of the reduced form, so:

    - the pivots among the columns of b are those of b alone, and the kept
      columns of b (`self.b`) are a basis of B;
    - the pivots among the columns of z are the columns of z outside the
      span of B and of the columns of z before them.  This depends only on
      span(B), not on its generators, so these columns are the
      representatives, canonical because `z` is;
    - [self.b | reps] is a basis of span Z, so the solution of
      [b | z]·x = v with free variables 0 gives the unique coordinates of
      v against it: those at the representative pivots are the coordinates
      of the class of v.

    `coordinates_many` checks the same way that its vectors lie in span Z
    before it solves on the lead rows.
    """

    def __init__(self, z: np.ndarray, b: np.ndarray, p: int):
        self.p = p
        n, k = z.shape
        if b.shape[0] != n:
            raise ValueError("ambient dimensions differ")
        nb = b.shape[1]
        z = np.mod(np.asarray(z, dtype=np.int64), p)
        # (count_nonzero is the cheapest test of a small boolean array)
        if k >= n:  # the only canonical basis of the whole space is I_n
            lead = np.arange(n)
            canonical = (k == n and np.count_nonzero(z) == n
                         and np.count_nonzero(z.diagonal() == 1) == n)
        else:  # the first nonzero row of every column; z[lead] = I_k
            lead = (z != 0).argmax(axis=0)
            zl = z[lead]
            canonical = (not np.count_nonzero(lead[1:] <= lead[:-1]) and np.count_nonzero(zl) == k
                         and np.count_nonzero(zl.diagonal() == 1) == k)
        if not canonical:
            raise InvariantError("linalg.subquotient", "Z is not in canonical column-echelon form")
        self._lead, self._rest = lead, None
        if k < n:
            rest = np.ones(n, dtype=bool)
            rest[lead] = False
            self._rest = rest.nonzero()[0]
            self._z_rest = z[self._rest].astype(np.float64)
        b_lead = self._lead_rows(b)
        if b_lead is None:
            raise InvariantError("linalg.subquotient", "B is not contained in the span of Z")
        # [b[lead] | I_k] as bytes (p <= MAX_PRIME < 256): the factor reads it once
        bl = np.zeros((k, nb + k), dtype=np.uint8)
        bl[:, :nb] = b_lead
        bl.reshape(-1)[nb :: nb + k + 1] = 1  # the entries (i, nb + i)
        solver = FactoredSolve(bl, p)
        # [b[lead] | I_k] has rank k, so E·v[lead] is the solution at all k
        # pivots, in order: the kept columns of b, then the representatives
        self._transform = solver.transform
        self._rank_b = bisect_left(solver.pivots, nb)
        # the kept columns of b, a basis of B
        self.b = np.mod(np.asarray(b, dtype=np.int64)[:, solver._pivot_rows[: self._rank_b]], p)
        self.reps = z[:, solver._pivot_rows[self._rank_b :] - nb]
        self.dim = k - self._rank_b

    def _lead_rows(self, vs: np.ndarray) -> np.ndarray | None:
        """v[lead] mod p for the columns v of `vs`, or None if one of them is
        outside span Z (v[rest] != z[rest]·v[lead])."""
        if self._rest is None:  # z = I_n
            return np.mod(vs, self.p)
        # the rows are copies, reduced in place
        lead, rest = vs[self._lead], vs[self._rest]
        np.mod(lead, self.p, out=lead)
        np.mod(rest, self.p, out=rest)
        if np.count_nonzero(matmul_mod(self._z_rest, lead, self.p) != rest):
            return None
        return lead

    def coordinates_many(self, vs: np.ndarray) -> np.ndarray:
        """Coordinates of the classes of the columns of `vs`, as columns."""
        lead = self._lead_rows(vs)
        if lead is None:
            raise ValueError("vector is not in the span of Z")
        return matmul_mod(self._transform[self._rank_b :], lead, self.p).astype(np.int64)


class Csc(NamedTuple):
    """A sparse matrix over F_p as CSC arrays: column j has the values
    values[indptr[j]:indptr[j + 1]], all in [1, p), at the rows
    rows[indptr[j]:indptr[j + 1]], which increase."""

    indptr: np.ndarray
    rows: np.ndarray
    values: np.ndarray


def csc_from_entries(cols: np.ndarray, rows: np.ndarray, values: np.ndarray, ncols: int) -> Csc:
    """The `Csc` of the entries (cols[i], rows[i], values[i]), given with
    increasing rows within each column; one stable argsort by column."""
    order = np.argsort(cols, kind="stable")
    indptr = np.zeros(ncols + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=ncols), out=indptr[1:])
    return Csc(indptr, rows[order], values[order])


class SparseReduction:
    """The left-to-right reduction of one `Csc` matrix D over F_p, as
    `sparse_rank` leaves it.

    - `rank` and `pivot_rows`, the lowest rows of the reduced nonzero
      columns, which clear the next map (module docstring);
    - `kernel`, with `record`: the V columns, {index: value}, of the
      columns outside `cleared` that reduce to zero, in column order.  Each
      is in the kernel of D, and they are independent;
    - `pivot(row)`: the pivot (R column, V column or None) at a row, built
      from D's column the first time an apparent one is asked for;
    - `add_pivots`: columns appended to D as pivots of their own;
    - `reduce`: the one reduction loop.
    """

    def __init__(self, matrix: Csc, p: int, record: bool):
        self.p, self.record = p, record
        # slices of lists cost less than of arrays, and most columns are read
        self._indptr, self._rows, self._values = (a.tolist() for a in matrix)
        self.rank = 0
        self.pivot_rows = np.zeros(0, dtype=np.intp)
        self.kernel: list[dict[int, int]] = []
        self._built: dict[int, tuple] = {}
        self._apparent: dict[int, int] = {}

    def column(self, j: int) -> dict[int, int]:
        """Column j of D as {row: value}."""
        a, b = self._indptr[j], self._indptr[j + 1]
        return dict(zip(self._rows[a:b], self._values[a:b]))

    def pivot(self, row: int) -> tuple | None:
        """(R column, V column or None) of the pivot at `row`, or None."""
        piv = self._built.get(row)
        if piv is None:
            j = self._apparent.get(row)
            if j is not None:
                piv = self._built[row] = (self.column(j), {j: 1} if self.record else None)
        return piv

    def add_pivots(self, columns: list[dict[int, int]]) -> None:
        """Append `columns` to the n columns of D, column k as the pivot at
        its lowest row with V column e_(n+k): `reduce` then reduces by the
        reduced columns of [D | columns].  The caller guarantees that these
        rows are distinct and that no pivot of D is at one of them, so every
        pivot still has its own row."""
        for k, col in enumerate(columns, len(self._indptr) - 1):
            self._built[max(col)] = (col, {k: 1})

    def reduce(self, col: dict[int, int], op: dict[int, int] | None,
               grow: bool = False) -> int | None:
        """Reduce `col` in place by the pivots until it is {} or its lowest
        row has no pivot, and return that row, None for {}; with `grow`
        the column then becomes the pivot of that row.  Every subtraction
        of f times an R column subtracts f times its V column from `op`
        too, when both are given.

        The lowest row comes off a max-heap of the column's rows, negated
        for `heapq` (module docstring): a row is pushed when it enters
        `col`, and an entry whose row has left `col` is dropped when it
        comes to the top.  Every row of `col` has an entry, so the first
        top entry in `col` is max(col), the row the plain reduction
        picks."""
        p, built, apparent = self.p, self._built, self._apparent
        heap = [-i for i in col]
        heapify(heap)
        while col:
            while -heap[0] not in col:
                heappop(heap)
            low = -heap[0]
            piv = built.get(low)
            if piv is None:
                if low not in apparent:
                    if grow:
                        built[low] = (col, op)
                    return low
                piv = self.pivot(low)
            r, v = piv
            f = col[low] * pow(r[low], p - 2, p) % p
            for i, x in r.items():
                if i in col:
                    nx = (col[i] - f * x) % p
                    if nx:
                        col[i] = nx
                    else:
                        del col[i]
                else:  # f and x are units, so the new entry is not zero
                    col[i] = -f * x % p
                    heappush(heap, -i)
            if op is not None and v is not None:
                for i, x in v.items():
                    nx = (op.get(i, 0) - f * x) % p
                    if nx:
                        op[i] = nx
                    else:
                        op.pop(i, None)
        return None


def sparse_rank(matrix: Csc, p: int, cleared: np.ndarray | None = None,
                record: bool = False) -> SparseReduction:
    """Reduce the `Csc` matrix D over F_p left to right and return the
    reduction, whose `rank` is the rank of D.

    The columns indexed by `cleared` are taken as zero (clearing, module
    docstring).  One numpy pass finds the apparent columns, which become
    pivots as they are; only the other columns are reduced, as dicts, by
    `SparseReduction.reduce`.  With `record` the column operations are
    recorded too (R = D·V, V_j = e_j at the start), and `kernel` holds the
    V columns of the columns reduced to zero, cleared ones aside.
    """
    red = SparseReduction(matrix, p, record)
    indptr, rows, _ = matrix
    nnz = len(rows)
    todo = np.ones(len(indptr) - 1, dtype=bool)
    if cleared is not None:
        todo[cleared] = False
    live = (todo & (indptr[1:] > indptr[:-1])).nonzero()[0]
    # the lowest row of each live column (its rows increase); the column is
    # apparent when the first entry of D in that row is its own
    low = rows[indptr[live + 1] - 1]
    first = np.full(int(rows.max(initial=-1)) + 1, nnz)
    np.minimum.at(first, rows, np.arange(nnz))
    apparent = first[low] >= indptr[live]
    apparent_rows = low[apparent]
    red._apparent = dict(zip(apparent_rows.tolist(), live[apparent].tolist()))
    todo[live[apparent]] = False
    grown = []
    for j in todo.nonzero()[0].tolist():
        op = {j: 1} if record else None
        low = red.reduce(red.column(j), op, grow=True)
        if low is not None:
            grown.append(low)
        elif record:  # reduced to zero, or empty from the start
            red.kernel.append(op)
    red.rank = len(red._apparent) + len(grown)
    red.pivot_rows = np.concatenate([apparent_rows, np.array(grown, dtype=np.intp)])
    return red
