"""The Swan double complex of an equivariant cochain complex.

Columns are copies of the cochain complex; the horizontal differential
out of column k is multiplication by (t - 1) for k even and by the norm
N = 1 + t + ... + t^(p-1) for k odd (the dual of the standard 2-periodic
free resolution of the trivial module).  The total differential is
d = d_h + (-1)^k d_v, with d_v = delta.

The total cohomology is read off a small model of Tot, the graded space
V = sum_k H^*(X), V^s = sum_(k+l=s) H^l, with a differential D transferred
from d by the basic perturbation lemma (R. Brown, "The twisted
Eilenberg-Zilber theorem", 1965; M. Crainic, "On the perturbation lemma,
and deformations", arXiv math/0403266).

- The contraction of a column onto its cohomology comes from the
  reductions `complexes.CohomologyBasis` holds.  For y in C^l, delta y is
  a coboundary, and the reduction of degree l + 1 gives w in C^l with
  delta w = delta y (`preimage`).  y - w is then a cocycle, and the
  reduction of degree l splits it as y - w = reps·c + delta u (`split`).
  Set p(y) = c, h(y) = u and iota = reps.  Then
  delta h + h delta = 1 - iota p: delta h(y) = y - w - reps·c, and
  h(delta y) = w, since delta y splits by the same reduction of delta y
  that gave w, with c = 0.  Column k, whose vertical differential is
  (-1)^k delta, contracts with the homotopy h_k = (-1)^k h.
- d_h is a perturbation of the sum of the vertical differentials.  h
  lowers l by one and d_h keeps it, so (h d_h)^j is zero for j > n and the
  perturbation is small.  The lemma then makes (V, D) homotopy equivalent
  to (Tot, d), with D = sum_j p d_h (-H d_h)^j iota, where H is h_k on
  column k (Crainic's homotopy has the sign opposite to H).  Out of cell
  (k, l), (-H d_h)^j iota is (-1)^j X_j, with X_0 = reps_l, t = T - 1 or
  N as in `apply_h`, and

      Y_j = t_(k+j)(X_j),
      X_(j+1) = (-1)^(k+j+1) h(Y_j);

  so the block of D into (k + j + 1, l - j) is (-1)^j p(Y_j), for
  j = 0..l: X_j lies in C^(l-j), so there are at most l + 1 <= n + 1
  terms.  The block at j = 0 is the d_1 of the spectral sequence, and
  H^s(Tot) has dimension dim V^s - rank D_(s-1) - rank D_s.
- Every block depends on k only through the parity of k, so D repeats
  with period 2 in k.  For s >= n every cell (s - l, l), l = 0..n, of V^s
  and of V^(s+1) lies in a column >= 0, so V^(s+2) has the cells of V^s
  two columns on, and D at s + 2 is the same matrix as D at s, built from
  the same cached blocks.  The total cohomology ranks D only for
  s = 0..n+1 and takes every later rank from the degree of the same
  parity, so `total_cohomology_dim` serves every degree s.  D is at most a
  few cohomology groups wide, so its ranks are dense; so is the check
  that D o D = 0 out of every degree 0..n+1, with D at n + 2 read as D at
  n, `InvariantError` at `swan.tot_dims` otherwise.  Out of any later
  degree D o D is one of these products.

K_max only bounds what is reported: H^s for s <= K_max - 2
(`total_cohomology_dims`), and products into columns <= K_max.

The product takes a pair at columns (k, k') to

    a . b = (-1)^(k' l) *  | a u b            k even
                           | a u (t b)        k odd, k' even
                           | sum t^i a u t^j b  (0 <= i < j < p)  k, k' odd

with u the front/back-face cochain cup product.

The lemma needs d o d = 0, which nothing here re-checks.  The base
complex checks, in its constructor, that T delta = delta T in every
degree and that T^p = 1 (`InvariantError` at `complexes.cochain`
otherwise).  Every d_h is a polynomial in T, so
(T - 1) delta = delta (T - 1) and N delta = delta N, that is
[d_h, d_v] = 0; and d_h o d_h is (T - 1)N = N(T - 1) = T^p - 1 = 0 in both
column parities.
"""

from __future__ import annotations

import numpy as np

from .complexes import EquivariantCochainComplex
from .errors import InvariantError
from .linalg import matmul_mod, rank_mod


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
        self._transfer: dict[tuple[int, int], list[np.ndarray]] = {}
        self._ranks: list[int] | None = None  # of D at s = 0..n+1
        self._tot_dims_cache: list[int] | None = None

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

    # -- the transferred differential ---------------------------------------
    def _tot_blocks(self, s: int) -> list[tuple[int, int]]:
        return [(k, s - k) for k in range(max(0, s - self.n), s + 1)]

    def _contract(self, l: int, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """p and h of the contraction of C^l onto H^l (module docstring) on
        the columns of `ys`."""
        H = self.base.cohomology()
        cs = np.zeros((H[l].dim, ys.shape[1]), dtype=np.int64)
        us = np.zeros((self.base.dim(l - 1), ys.shape[1]), dtype=np.int64)
        deltas = H[l].coboundary(ys)
        for i, y in enumerate(ys.T):
            if not y.any():
                continue
            w = H[l + 1].preimage(deltas[:, i]) if deltas[:, i].any() else 0
            parts = None if w is None else H[l].split(y - w)
            if parts is None:
                raise InvariantError("swan.tot_dims", f"a {l}-cochain does not split over H^{l}")
            us[:, i], cs[:, i] = parts
        return cs, us

    def _transfer_blocks(self, k: int, l: int) -> list[np.ndarray]:
        """The blocks of D out of cell (k, l), the one into (k + j + 1, l - j)
        at j (module docstring)."""
        key = (k % 2, l)
        if key not in self._transfer:
            p, blocks = self.p, []
            x = self.base.cohomology()[l].reps
            for j in range(l + 1):
                c, u = self._contract(l - j, self.apply_h(k + j, l - j, x))
                blocks.append((-1) ** j * c % p)
                x = (-1) ** (k + j + 1) * u % p
            self._transfer[key] = blocks
        return self._transfer[key]

    def _transferred(self, s: int) -> np.ndarray:
        """D: V^s -> V^(s+1), its cells ordered by increasing k, each in
        the basis of the representatives of H^l."""
        dims = self.base.cohomology_dims()
        sources, targets = self._tot_blocks(s), self._tot_blocks(s + 1)
        col_at = np.cumsum([0] + [dims[l] for _, l in sources])
        row_at = np.cumsum([0] + [dims[l] for _, l in targets])
        out = np.zeros((row_at[-1], col_at[-1]), dtype=np.int64)
        row_of = dict(zip(targets, row_at))
        for (k, l), c0 in zip(sources, col_at):
            for j, block in enumerate(self._transfer_blocks(k, l)):
                r0 = row_of[(k + j + 1, l - j)]
                out[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block
        return out

    def _d_rank(self, s: int) -> int:
        """The rank of D: V^s -> V^(s+1), for any s, from the ranks at
        s = 0..n+1 (module docstring)."""
        if self._ranks is None:
            n, p = self.n, self.p
            ds = [self._transferred(degree) for degree in range(n + 2)]
            for degree, d in enumerate(ds):  # D at n + 2 is D at n
                if matmul_mod(ds[degree + 1] if degree <= n else ds[n], d, p).any():
                    raise InvariantError("swan.tot_dims", f"D o D != 0 out of degree {degree}")
            self._ranks = [rank_mod(d, p) for d in ds]
        n, ranks = self.n, self._ranks
        return 0 if s < 0 else ranks[n + (s - n) % 2] if s >= n else ranks[s]

    def total_cohomology_dim(self, s: int) -> int:
        """dim H^s of the total complex, for any s >= 0."""
        dims = self.base.cohomology_dims()
        return sum(dims[l] for _, l in self._tot_blocks(s)) - self._d_rank(s - 1) - self._d_rank(s)

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

