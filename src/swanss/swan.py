"""The Swan double complex of an equivariant cochain complex.

Columns are copies of the cochain complex; the horizontal differential
out of column k is multiplication by (t - 1) for k even and by the norm
N = 1 + t + ... + t^(p-1) for k odd (the dual of the standard 2-periodic
free resolution of the trivial module).  The total differential is
d = d_h + (-1)^k d_v.

Column data is independent of k apart from parity, so the finite window
[0, K_max] is bookkeeping: every matrix exists for any column.  Total
cohomology is trusted for s <= K_max - 2.

The product takes a pair at columns (k, k') to

    a . b = (-1)^(k' l) *  | a u b            k even
                           | a u (t b)        k odd, k' even
                           | sum t^i a u t^j b  (0 <= i < j < p)  k, k' odd

with u the front/back-face cochain cup product.
"""

from __future__ import annotations

import numpy as np

from .complexes import EquivariantCochainComplex
from .linalg import PrimeFieldMatrix, matmul_mod, sparse_rank


class WindowError(ValueError):
    pass


class SwanDoubleComplex:
    def __init__(self, base: EquivariantCochainComplex, k_max: int | None = None):
        self.base = base
        self.p = base.p
        self.field = base.field
        self.n = base.top_degree
        if k_max is None:
            k_max = 2 * self.n + 16
        if k_max < 2 * (self.n + 8):
            raise WindowError(
                f"window K_max={k_max} too small; need at least {2 * (self.n + 8)}"
            )
        self.k_max = k_max
        self._h_matrices: dict[tuple[int, int], PrimeFieldMatrix] = {}
        self._column_cols: list[list[dict[int, int]]] | None = None
        self._tot_dims_cache: list[int] | None = None
        self._check_invariants()

    # -- dimensions -----------------------------------------------------
    def cell_dim(self, k: int, l: int) -> int:
        if k < 0 or l < 0 or l > self.n:
            return 0
        return self.base.dim(l)

    def tot_dim(self, s: int) -> int:
        return sum(
            self.cell_dim(k, s - k) for k in range(max(0, s - self.n), min(s, self.k_max) + 1)
        )

    @property
    def trusted_total_limit(self) -> int:
        return self.k_max - 2

    # -- differentials ----------------------------------------------------
    def apply_h(self, k: int, l: int, vectors: np.ndarray) -> np.ndarray:
        """Horizontal differential out of column k on degree-l cochains."""
        vectors = np.asarray(vectors, dtype=np.int64)
        if k % 2 == 0:
            return np.mod(self.base.apply_action(l, vectors) - vectors, self.p)
        return self.base.apply_norm(l, vectors)

    def h_matrix(self, k: int, l: int) -> PrimeFieldMatrix:
        key = (k % 2, l)
        if key not in self._h_matrices:
            eye = np.eye(self.base.dim(l), dtype=np.int64)
            self._h_matrices[key] = PrimeFieldMatrix(self.field, self.apply_h(k, l, eye))
        return self._h_matrices[key]

    def _check_invariants(self):
        base = self.base
        p = self.p
        for l in range(self.n + 1):
            eye = np.eye(base.dim(l), dtype=np.int64)
            shifted = self.apply_h(0, l, eye)
            norm = self.apply_h(1, l, eye)
            # d_h o d_h = 0 in both column parities
            assert not np.any(self.apply_h(1, l, shifted) % p)
            assert not np.any(self.apply_h(0, l, norm) % p)
            # columns are 2-periodic: parity determines the matrix
            assert self.h_matrix(0, l) == self.h_matrix(2, l)
            assert self.h_matrix(1, l) == self.h_matrix(3, l)
        for l in range(self.n):
            delta = base.delta(l).a

            def right_action(mat):
                out = np.zeros_like(mat)
                out[:, base.act_pre[l]] = np.mod(mat * base.act_sign[l][None, :], p)
                return out

            for parity in (0, 1):
                h_after_delta = self.apply_h(parity, l + 1, delta)
                if parity == 0:
                    delta_after_h = np.mod(right_action(delta) - delta, p)
                else:
                    acc = delta.copy()
                    cur = delta
                    for _ in range(p - 1):
                        cur = right_action(cur)
                        acc = acc + cur
                    delta_after_h = np.mod(acc, p)
                assert np.array_equal(h_after_delta, delta_after_h), (
                    "horizontal and vertical differentials do not commute"
                )

    # -- total complex -----------------------------------------------------
    def _tot_blocks(self, s: int) -> list[tuple[int, int]]:
        return [
            (k, s - k)
            for k in range(max(0, s - self.n), min(s, self.k_max) + 1)
        ]

    def _delta_columns(self, l: int) -> list[dict[int, int]]:
        if self._column_cols is None:
            self._column_cols = [None] * (self.n + 1)
        if self._column_cols[l] is None:
            delta = self.base.delta(l).a
            cols = []
            for j in range(delta.shape[1]):
                rows = np.nonzero(delta[:, j])[0]
                cols.append({int(r): int(delta[r, j]) for r in rows})
            self._column_cols[l] = cols
        return self._column_cols[l]

    def _h_columns(self, parity: int, l: int) -> list[dict[int, int]]:
        h = self.h_matrix(parity, l).a
        cols = []
        for j in range(h.shape[1]):
            rows = np.nonzero(h[:, j])[0]
            cols.append({int(r): int(h[r, j]) for r in rows})
        return cols

    def total_differential_columns(self, s: int) -> list[dict[int, int]]:
        """Sparse columns of d: Tot^s -> Tot^(s+1) within the window."""
        src_blocks = self._tot_blocks(s)
        tgt_blocks = self._tot_blocks(s + 1)
        tgt_offset = {}
        at = 0
        for (k, l) in tgt_blocks:
            tgt_offset[(k, l)] = at
            at += self.cell_dim(k, l)
        columns = []
        h_cols_cache: dict[tuple[int, int], list] = {}
        d_cols_cache: dict[int, list] = {}
        for (k, l) in src_blocks:
            par = k % 2
            if (par, l) not in h_cols_cache:
                h_cols_cache[(par, l)] = self._h_columns(par, l)
            if l not in d_cols_cache:
                d_cols_cache[l] = self._delta_columns(l)
            hcols = h_cols_cache[(par, l)]
            dcols = d_cols_cache[l]
            sgn = (-1) ** k % self.p
            for j in range(self.cell_dim(k, l)):
                col: dict[int, int] = {}
                if (k + 1, l) in tgt_offset:
                    off = tgt_offset[(k + 1, l)]
                    for r, v in hcols[j].items():
                        col[off + r] = v
                if (k, l + 1) in tgt_offset and l + 1 <= self.n:
                    off = tgt_offset[(k, l + 1)]
                    for r, v in dcols[j].items():
                        col[off + r] = (sgn * v) % self.p
                columns.append(col)
        return columns

    def total_cohomology_dims(self) -> list[int]:
        """dim H^s of the total complex for 0 <= s <= K_max - 2."""
        if self._tot_dims_cache is None:
            limit = self.trusted_total_limit
            ranks = [0] * (limit + 2)
            for s in range(limit + 1):
                ranks[s] = sparse_rank(self.total_differential_columns(s), self.p)
            dims = []
            for s in range(limit + 1):
                prev = ranks[s - 1] if s > 0 else 0
                dims.append(self.tot_dim(s) - prev - ranks[s])
            self._tot_dims_cache = dims
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


def build(base: EquivariantCochainComplex, k_max: int | None = None) -> SwanDoubleComplex:
    return SwanDoubleComplex(base, k_max)


def swan_product(dc: SwanDoubleComplex, k, l, alpha, k2, l2, beta) -> np.ndarray:
    return dc.product(k, l, alpha, k2, l2, beta)


def total_cohomology_dims(dc: SwanDoubleComplex) -> list[int]:
    return dc.total_cohomology_dims()


# -- formal sums of bigraded cochains, used by the property tests --------


def tot_differential(dc: SwanDoubleComplex, element: dict) -> dict:
    """d on a formal sum {(k, l): cochain}."""
    out: dict[tuple[int, int], np.ndarray] = {}

    def add(pos, vec):
        if vec.size and np.any(vec):
            if pos in out:
                out[pos] = np.mod(out[pos] + vec, dc.p)
            else:
                out[pos] = np.mod(vec, dc.p)

    for (k, l), vec in element.items():
        add((k + 1, l), dc.apply_h(k, l, vec))
        if l + 1 <= dc.n:
            dv = matmul_mod(dc.base.delta(l).a, np.mod(vec, dc.p), dc.p).astype(np.int64)
            add((k, l + 1), ((-1) ** k % dc.p) * dv % dc.p)
    return {pos: vec for pos, vec in out.items() if np.any(vec)}


def tot_product(dc: SwanDoubleComplex, x: dict, y: dict) -> dict:
    """Bilinear extension of the signed product to formal sums."""
    out: dict[tuple[int, int], np.ndarray] = {}
    for (k, l), a in x.items():
        for (k2, l2), b in y.items():
            if l + l2 > dc.n:
                continue
            vec = dc.product(k, l, a, k2, l2, b)
            pos = (k + k2, l + l2)
            if vec.size and np.any(vec):
                if pos in out:
                    out[pos] = np.mod(out[pos] + vec, dc.p)
                else:
                    out[pos] = vec
    return {pos: vec for pos, vec in out.items() if np.any(vec)}
