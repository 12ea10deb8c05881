"""The Swan double complex of an equivariant cochain complex.

Columns are copies of the cochain complex; the horizontal differential
out of column k is multiplication by (t - 1) for k even and by the norm
N = 1 + t + ... + t^(p-1) for k odd (the dual of the standard 2-periodic
free resolution of the trivial module).  The total differential is
d = d_h + (-1)^k d_v.

Every matrix depends on its column only through the column's parity, so
the complex repeats with period 2 away from column 0.  For s >= n every
block of d: Tot^s -> Tot^(s+1) lies in a column >= 0, and d at s + 2 is
the same matrix as d at s.  The total cohomology ranks d only for
s = 0..n+3, checks that degrees n, n+1 give the ranks of n+2, n+3, and
takes every later rank from the degree of the same parity, so
`total_cohomology_dim` serves every degree s.  Each rank clears d_s with
the pivot rows of the reduced d_(s-1), as `linalg` describes.  K_max only
bounds what is reported: H^s for s <= K_max - 2 (`total_cohomology_dims`),
and products into columns <= K_max.

The product takes a pair at columns (k, k') to

    a . b = (-1)^(k' l) *  | a u b            k even
                           | a u (t b)        k odd, k' even
                           | sum t^i a u t^j b  (0 <= i < j < p)  k, k' odd

with u the front/back-face cochain cup product.

The action T on degree-l cochains permutes the simplices and carries no
signs: the base complex is order-compatible, so g^{-1} = g^(p-1) is
increasing on every simplex and keeps the order of its vertices
(`complexes.EquivariantCochainComplex`).  With post = `K._image[l]`, g's
permutation of the l-simplices and the inverse of `act_pre[l]`,
T e_j = e_post[j], so d_h is read off it directly:

    column j of T - 1:  1 at post[j], -1 at j
    column j of N:      1 along the orbit of j, the rows post^m[j], m < p

with values mod p.  A fixed cochain j (post[j] = j) has an empty column in
both, since its entries add up to 0 or to p; any other orbit has p
distinct members.  d_v = (-1)^k delta_l is the base complex's sparse
coboundary (`_coboundary`), read off its face table.  Each map is a
`linalg.Csc`, kept per (parity of k, l) as the column block (k, l) of d:
its rows are those of block (k, l + 1) of Tot^(s+1), where d_v lands,
then those of block (k + 1, l), where d_h lands.  These two blocks are
next to each other in Tot^(s+1) (blocks by increasing k), so
`total_differential` puts the column blocks of d_s side by side, each
shifted down by the rows of the blocks before it, and builds no column
by itself.

Nothing here re-checks the double complex.  The base complex checks, in
its constructor, that T delta = delta T in every degree and that T^p = 1
(`InvariantError` at `complexes.cochain` otherwise).  Every d_h is a
polynomial in T, so (T - 1) delta = delta (T - 1) and N delta = delta N,
that is [d_h, d_v] = 0; and d_h o d_h is (T - 1)N = N(T - 1) = T^p - 1 = 0
in both column parities.
"""

from __future__ import annotations

import numpy as np

from .complexes import EquivariantCochainComplex
from .errors import InvariantError
from .linalg import Csc, csc_from_entries, sparse_rank


class WindowError(ValueError):
    pass


class SwanDoubleComplex:
    def __init__(self, base: EquivariantCochainComplex, k_max: int | None = None):
        self.base = base
        self.p = base.p
        self.n = base.top_degree
        if k_max is None:
            k_max = 2 * self.n + 16
        if k_max < 2 * (self.n + 8):
            raise WindowError(
                f"window K_max={k_max} too small; need at least {2 * (self.n + 8)}"
            )
        self.k_max = k_max
        self._blocks: dict[tuple[int, int], Csc] = {}
        self._ranks: list[int] | None = None  # of d at s = 0..n+3
        self._tot_dims_cache: list[int] | None = None

    # -- dimensions -----------------------------------------------------
    def cell_dim(self, k: int, l: int) -> int:
        if k < 0 or l < 0 or l > self.n:
            return 0
        return self.base.dim(l)

    def tot_dim(self, s: int) -> int:
        return sum(self.cell_dim(k, l) for k, l in self._tot_blocks(s))

    @property
    def trusted_total_limit(self) -> int:
        return self.k_max - 2

    # -- differentials ----------------------------------------------------
    def apply_h(self, k: int, l: int, vectors: np.ndarray) -> np.ndarray:
        """Horizontal differential out of column k on degree-l cochains."""
        base = self.base
        vectors = np.mod(np.asarray(vectors, dtype=np.int64), self.p)
        if k % 2 == 0:
            return np.mod(base.apply_action(l, vectors) - vectors, self.p)
        acc = cur = vectors
        for _ in range(self.p - 1):
            cur = base.apply_action(l, cur)
            acc = acc + cur
        return np.mod(acc, self.p)

    # -- total complex -----------------------------------------------------
    def _tot_blocks(self, s: int) -> list[tuple[int, int]]:
        return [(k, s - k) for k in range(max(0, s - self.n), s + 1)]

    def _column_block(self, k: int, l: int) -> Csc:
        """The columns of d out of block (k, l) (module docstring): the rows
        of (-1)^k delta_l, then those of d_h, T - 1 (k even) or N (k odd)."""
        key = (k % 2, l)
        if key not in self._blocks:
            p, post = self.p, self.base.K._image[l]
            js = np.arange(len(post))
            moved = js[post != js]
            if k % 2 == 0:
                h_rows = np.sort(np.stack([moved, post[moved]]), axis=0)
                h_values = np.where(h_rows == moved, p - 1, 1)
            else:
                orbit = [moved]
                for _ in range(p - 1):
                    orbit.append(post[orbit[-1]])
                h_rows = np.sort(np.stack(orbit), axis=0)
                h_values = np.ones_like(h_rows)
            indptr, v_rows, v_values = self.base._coboundary(l)
            v_cols = np.repeat(js, np.diff(indptr))
            h_cols = np.repeat(moved, len(h_rows))
            self._blocks[key] = csc_from_entries(
                np.concatenate([v_cols, h_cols]),
                np.concatenate([v_rows, h_rows.T.ravel() + self.base.dim(l + 1)]),
                np.concatenate([v_values * (-1) ** k % p, h_values.T.ravel()]),
                len(post))
        return self._blocks[key]

    def total_differential(self, s: int) -> Csc:
        """d: Tot^s -> Tot^(s+1), its column blocks side by side."""
        indptr, rows, values = [np.zeros(1, dtype=np.intp)], [], []
        nnz = row_at = 0
        for k, l in self._tot_blocks(s):
            ip, r, v = self._column_block(k, l)
            indptr.append(ip[1:] + nnz)
            rows.append(r + row_at)
            values.append(v)
            nnz += len(r)
            row_at += self.base.dim(l + 1)  # past block (k, l + 1)
        return Csc(*map(np.concatenate, (indptr, rows, values)))

    def _d_rank(self, s: int) -> int:
        """The rank of d: Tot^s -> Tot^(s+1), for any s, from the ranks at
        s = 0..n+3 (module docstring)."""
        if self._ranks is None:
            n = self.n
            # clearing: a pivot row of reduced d_(s-1) is a column of d_s that
            # reduces to zero (linalg module docstring), so it is never reduced
            ranks, cleared = [], None
            for degree in range(n + 4):
                red = sparse_rank(self.total_differential(degree), self.p, cleared)
                ranks.append(red.rank)
                cleared = red.pivot_rows
            if ranks[n : n + 2] != ranks[n + 2 :]:
                raise InvariantError("swan.tot_dims", f"ranks {ranks} of d: no period 2 from {n}")
            self._ranks = ranks
        n, ranks = self.n, self._ranks
        return 0 if s < 0 else ranks[n + (s - n) % 2] if s >= n else ranks[s]

    def total_cohomology_dim(self, s: int) -> int:
        """dim H^s of the total complex, for any s >= 0."""
        return self.tot_dim(s) - self._d_rank(s - 1) - self._d_rank(s)

    def total_cohomology_dims(self) -> list[int]:
        """dim H^s of the total complex for 0 <= s <= K_max - 2."""
        if self._tot_dims_cache is None:
            self._tot_dims_cache = [self.total_cohomology_dim(s)
                                    for s in range(self.trusted_total_limit + 1)]
        return self._tot_dims_cache

    # -- products -----------------------------------------------------------
    def cup_bigraded(
        self, k: int, l: int, alpha: np.ndarray, k2: int, l2: int, beta: np.ndarray
    ) -> np.ndarray:
        """The (unsigned) product via the diagonal approximation."""
        if k + k2 > self.k_max:
            raise WindowError(f"product column {k + k2} exceeds window {self.k_max}")
        base = self.base
        if l + l2 > self.n:
            return np.zeros(0, dtype=np.int64)
        if k % 2 == 0:
            return base.cup(l, alpha, l2, beta)
        if k2 % 2 == 0:
            return base.cup(l, alpha, l2, base.apply_action(l2, beta))
        out = np.zeros(base.dim(l + l2), dtype=np.int64)
        alphas = [np.asarray(alpha, dtype=np.int64)]
        betas = [np.asarray(beta, dtype=np.int64)]
        for _ in range(self.p - 1):
            alphas.append(base.apply_action(l, alphas[-1]))
            betas.append(base.apply_action(l2, betas[-1]))
        for i in range(self.p - 1):
            for j in range(i + 1, self.p):
                out = out + base.cup(l, alphas[i], l2, betas[j])
        return np.mod(out, self.p)

    def product(
        self, k: int, l: int, alpha: np.ndarray, k2: int, l2: int, beta: np.ndarray
    ) -> np.ndarray:
        """Signed product a.b = (-1)^(k2*l) a u b (the multiplicative structure)."""
        cup = self.cup_bigraded(k, l, alpha, k2, l2, beta)
        if (k2 * l) % 2:
            cup = np.mod(-cup, self.p)
        return cup

