"""The Swan double complex of an equivariant cochain complex.

Columns are copies of the cochain complex; the horizontal differential
out of column k is multiplication by (t - 1) for k even and by the norm
N = 1 + t + ... + t^(p-1) for k odd (the dual of the standard 2-periodic
free resolution of the trivial module).  The total differential is
d = d_h + (-1)^k d_v.

Every matrix depends on its column only through the column's parity, so
the complex repeats with period 2 away from column 0.  For s >= n every
block of d: Tot^s -> Tot^(s+1) lies in a column >= 0, and d at s + 2 is
the same matrix as d at s.  `total_cohomology_dims` ranks d only for
s = 0..n+3, checks that degrees n, n+1 give the ranks of n+2, n+3, and
takes every later rank from the degree of the same parity.  K_max only
bounds what is reported: H^s for s <= K_max - 2, and products into
columns <= K_max.

The product takes a pair at columns (k, k') to

    a . b = (-1)^(k' l) *  | a u b            k even
                           | a u (t b)        k odd, k' even
                           | sum t^i a u t^j b  (0 <= i < j < p)  k, k' odd

with u the front/back-face cochain cup product.
"""

from __future__ import annotations

import numpy as np

from .complexes import EquivariantCochainComplex
from .errors import InvariantError
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
        self._sparse: dict[tuple[str, int, int], list[dict[int, int]]] = {}
        self._tot_dims_cache: list[int] | None = None
        self._check_invariants()

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
            # d_h o d_h is (t - 1)N = N(t - 1) = t^p - 1 in both column
            # parities, so it vanishes iff t^p = 1 on the signed permutation
            ident = np.arange(base.dim(l))
            perm, sign = ident, np.ones(base.dim(l), dtype=np.int64)
            for _ in range(p):
                sign = np.mod(sign * base.act_sign[l][perm], p)
                perm = base.act_pre[l][perm]
            if not (np.array_equal(perm, ident) and np.all(sign == 1 % p)):
                raise InvariantError("swan.build", f"d_h o d_h != 0 in row {l}: t^p != 1")
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
                if not np.array_equal(h_after_delta, delta_after_h):
                    raise InvariantError("swan.build", f"d_h d_v != d_v d_h out of row {l}")

    # -- total complex -----------------------------------------------------
    def _tot_blocks(self, s: int) -> list[tuple[int, int]]:
        return [(k, s - k) for k in range(max(0, s - self.n), s + 1)]

    def _sparse_columns(self, kind: str, k: int, l: int) -> list[dict[int, int]]:
        """Columns of d_h out of column k (kind "h") or of d_v (kind "v") in row l."""
        key = (kind, k % 2 if kind == "h" else 0, l)
        if key not in self._sparse:
            a = (self.h_matrix(k, l) if kind == "h" else self.base.delta(l)).a
            self._sparse[key] = [
                {int(r): int(a[r, j]) for r in np.nonzero(a[:, j])[0]} for j in range(a.shape[1])
            ]
        return self._sparse[key]

    def total_differential_columns(self, s: int) -> list[dict[int, int]]:
        """Sparse columns of d: Tot^s -> Tot^(s+1)."""
        offset, at = {}, 0
        for k, l in self._tot_blocks(s + 1):
            offset[(k, l)] = at
            at += self.cell_dim(k, l)
        columns = []
        for k, l in self._tot_blocks(s):
            # d_h lands in block (k + 1, l) and d_v in (k, l + 1), which exists for l < n
            h_off, hcols = offset[(k + 1, l)], self._sparse_columns("h", k, l)
            v_off, vcols = offset.get((k, l + 1)), self._sparse_columns("v", k, l)
            sgn = (-1) ** k % self.p
            for j in range(self.cell_dim(k, l)):
                col = {h_off + r: v for r, v in hcols[j].items()}
                if v_off is not None:
                    col.update({v_off + r: sgn * v % self.p for r, v in vcols[j].items()})
                columns.append(col)
        return columns

    def total_cohomology_dims(self) -> list[int]:
        """dim H^s of the total complex for 0 <= s <= K_max - 2."""
        if self._tot_dims_cache is None:
            n = self.n
            ranks = [sparse_rank(self.total_differential_columns(s), self.p) for s in range(n + 4)]
            if ranks[n : n + 2] != ranks[n + 2 :]:
                raise InvariantError("swan.tot_dims", f"ranks {ranks} of d: no period 2 from {n}")

            def rank(s: int) -> int:
                return 0 if s < 0 else ranks[n + (s - n) % 2] if s >= n else ranks[s]

            limit = self.trusted_total_limit
            dims = [self.tot_dim(s) - rank(s - 1) - rank(s) for s in range(limit + 1)]
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
