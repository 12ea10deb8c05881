"""Pages of the column-filtration spectral sequence of a Swan complex.

A class on page r at (k, l) is presented by coordinates against a chain
of subquotients E_1 -> E_2 -> ... (E_1 is the cohomology of the column in
the representative basis of `complexes.CohomologyBasis`, and each later
page is a canonical subquotient of the one before), but every basis class
also carries an explicit total-complex representative: a staircase
x_0, ..., x_{r-1} with x_i in column k+i such that the total differential
of the sum vanishes in columns k..k+r-1.  A cell holds its staircases
as the columns of one matrix, laid out by offset from the cell's own
column, and the certificates of its boundary generators as another
(`PageCell`).  The page differential evaluates the horizontal map on the
last staircase block; products multiply leading blocks with the bigraded
cochain product and project back.  This makes representative choices
deterministic while all heavy linear algebra stays at the cochain level,
done once per row.

Columns differ only in parity, except that column 0 has no incoming d_1.
So page r is computed only for columns 0..s_r+3, with s_r = r(r-1)/2
the first column whose cell cannot see column 0 (derived in
`stable_start`).  The cells at s_r, s_r+1 are checked against those at
s_r+2, s_r+3, and every later column is served by the cell of its parity
among s_r, s_r+1 (`Page.source`): with staircases laid out by offset, that
cell is the served one as it stands, so every page cell is stored once
and no column is ever copied.  K_max, the trusted bound k <= K_max - 2r
and the reported range only decide what a report shows.

The dims and d_r ranks, unlike the stored cells, repeat with period 2
from total degree n + 1 on, on every page.  Order the basis of each
Tot^s by decreasing column k, so that F^k Tot, the columns >= k, comes
first, and reduce d_s: Tot^s -> Tot^(s+1) from left to right.  Each
nonzero reduced column pairs a basis element of Tot^s in column a with
its pivot row, a basis element of Tot^(s+1) in column b >= a, and
dim E_r^(k,l) is the number of basis elements of Tot^(k+l) in column k
that are unpaired or paired at a distance b - a >= r, while rank d_r out
of (k, l) is the number of pairs of distance r that start there
(S. Basu and L. Parida, "Spectral sequences, exact couples and
persistent homology of filtrations", Expo. Math. 2017).  For s >= n,
d_s is d_(s+2) with every column renamed from k to k+2, rows and columns
in the same order (`swan`), so the reduction of d_s makes the pairs of
d_(s+2), two columns to the left and at the same distances.  rank d_r
out of (k, l) reads only the pairs of d_(k+l), and dim E_r^(k,l) those
of d_(k+l-1) and d_(k+l), so for k + l >= n + 1 both equal their values
at (k+2, l), for every r.  The stored cells do not follow: their
staircases and certificates depend on choices made to their left, so
the period of the cells starts only at s_r.

The tower stops where it converges.  A d_r out of (k, l) lands in row
l - r + 1 and one into (k, l) leaves row l + r - 1, so from r = n + 2 on
every d_r is zero and E_(n+2) = E_inf, whose antidiagonal k + l = s adds
up to dim H^s(Tot): the column filtration is finite in every total degree.
Each page is a subquotient of the one before,

    dim E_(r+1)^(k,l) = dim E_r^(k,l) - rank d_r into (k,l) - rank d_r out of it,

so the dims fall termwise from page to page down to E_inf.  Suppose that
after page r is built, its antidiagonals add up to dim H^s(Tot) for every
s >= 0.  Termwise dim E_r >= dim E_inf with equal sums on every
antidiagonal gives dim E_r = dim E_inf termwise, so each d_r' with
r' >= r would remove dimension that E_inf still has unless it is zero:
every later differential vanishes.  Two periods make this a finite check:
for s >= s_r + n every column of the antidiagonal is >= s_r, where page r
repeats with period 2, and for s >= n + 1 the total dims repeat
(`swan`), so s = 0..s_r + n + 1 decide every s (s_r >= 1 for r >= 2).
With d_r zero, the page r + 1 that `_turn_page` builds is page r in the
same basis: ker d_r is everything in its canonical basis I and nothing
comes in, so `sub.reps` is I, its coordinates are the identity, no
boundary generator is added, and `_extend_lifts` changes the staircases
only in their blocks past x_0.  The leading blocks, the projections and
so the pairing matrices are page r's, and by induction those of every
later page.  So `PageTower` stops at the first such page r < r_max:
pages r+1..r_max are `ConvergedPage`s, which keep their own r, trusted
bound and reported range, store no cell, and serve page r's cells with
d = 0.  The test trusts the total dims, so the tower raises
`InvariantError` unless every computed d_r of page r is zero, and every
computed page still passes the period, ker/im and E_2 checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .gmodule import decompose
from .linalg import FactoredSolve, Subquotient, kernel_mod, matmul_mod, rank_mod
from .swan import SwanDoubleComplex, WindowError


def stable_start(r: int) -> int:
    """The column s_r from which the cells of page r repeat with period 2.

    Page 1 reads no other cell.  Page r+1 at column k reads cells of page r:
    the d_r out of k and into k from k - r (its subquotient), the boundary
    generators at k and the staircases and d_r at k - r (its boundary
    generators), the staircases at k and the boundary generators at k + r
    (its staircases, `_extend_lifts`), and subquotients of pages <= r+1 at
    k + r + 1 (its d_{r+1}).  Let L_r bound how far left of k page r reads,
    directly or through the cells it reads.  Then L_1 = 0 and, from the
    reads at k - r, k, k + r and k + r + 1,
    L_{r+1} = max(L_r + r, L_r, L_r - r, L_{r+1} - r - 1) = L_r + r,
    so L_r = r(r-1)/2.  A cell at k >= L_r reads only columns >= 0, and since
    the complex depends on the column only through its parity, the same
    computation moved by two columns builds the cell at k + 2.  The one
    difference between columns, that nothing lies left of column 0, is
    out of its reach.
    """
    return r * (r - 1) // 2


def _last_block(lifts: np.ndarray, height: int) -> np.ndarray:
    """The last block, of the given height, of staircase columns."""
    return lifts[lifts.shape[0] - height :]


@dataclass
class PageClass:
    """A class on page r at bidegree (k, l), as cell-basis coordinates."""

    r: int
    k: int
    l: int
    coords: np.ndarray

    def is_zero(self) -> bool:
        return self.coords.size == 0 or not np.any(self.coords)


class PageCell:
    """One cell of a page r at (k, l), its cochains in three int64 matrices.

    - `lifts`: the staircases of the basis classes, as columns.  Each is a
      cochain of Tot^(k+l) over columns k..k+r-1: block o, of height
      base.dim(l - o), holds x_o, with x_0 on top.
    - `gens`: the boundary generators, the d-images of earlier pages, as
      columns of degree-l cochains.
    - `certs`: their certificates, in the same column order.  The d_q image
      of a staircase from column k - q has that staircase as certificate,
      padded with zero blocks on top to cover offsets -(r-1)..-1: block c,
      of height base.dim(l - 1 - c), lies in column k + c.

    Laid out by offset, the cell knows nothing of its column, so the same
    cell serves every column of its parity from s_r on.
    """

    __slots__ = ("dim", "sub", "lifts", "gens", "certs", "d_matrix")

    def __init__(self, dim, sub, lifts, gens, certs):
        self.dim = dim
        self.sub = sub              # Subquotient in previous-page coords (None on page 1)
        self.lifts = lifts
        self.gens = gens
        self.certs = certs
        self.d_matrix = None        # int64 matrix to the cell r columns right, r-1 rows down

    def repeats(self, other: "PageCell") -> bool:
        """Whether this cell, computed at another column, equals `other`."""
        def state(cell):  # all int64: equal shapes and bytes mean equal arrays
            sub = () if cell.sub is None else (cell.sub.b, cell.sub.reps)
            arrays = (cell.d_matrix, cell.lifts, cell.gens, cell.certs) + sub
            return [(a.shape, a.tobytes()) for a in arrays]

        return state(self) == state(other)


class Page:
    def __init__(self, p: int, r: int, n: int, k_max: int, r_max: int):
        self.p = p
        self.r = r
        self.n = n
        self.k_max = k_max
        # a reporting bound only: dims_json lists columns up to
        # K_max + T(r_max) - T(r - 1), with T(m) = m(m+1)/2
        self.k_reported = k_max + stable_start(r_max + 1) - stable_start(r)
        self.stable = stable_start(r)
        self.cells: dict[tuple[int, int], PageCell] = {}  # columns 0..stable+3
        self._ranks: dict[tuple[int, int], int] = {}

    @property
    def trusted_k(self) -> int:
        return self.k_max - 2 * self.r

    @property
    def served(self) -> "Page":
        """The page whose cells serve this one (a property: an attribute
        naming the page itself would keep it alive in a reference cycle)."""
        return self

    def reduce(self, k: int) -> int:
        """The column, k itself or one of the first period, whose cell serves k."""
        s = self.stable
        return k if k < s + 2 else s + (k - s) % 2

    def source(self, k: int, l: int) -> PageCell | None:
        """The computed cell that serves (k, l); None outside the page."""
        if k < 0 or not 0 <= l <= self.n:
            return None
        return self.cells[(self.reduce(k), l)]

    def dim(self, k: int, l: int) -> int:
        cell = self.source(k, l)
        return cell.dim if cell else 0

    def d_rank(self, k: int, l: int) -> int:
        cell = self.source(k, l)
        if cell is None:
            return 0
        key = (self.reduce(k), l)
        if key not in self._ranks:
            self._ranks[key] = rank_mod(cell.d_matrix, self.p)
        return self._ranks[key]

    def d_is_zero(self, k: int, l: int) -> bool:
        cell = self.source(k, l)
        return cell is None or not cell.d_matrix.any()

    def dims_json(self) -> dict[str, int]:
        """The nonzero dims up to column k_reported, read off the computed
        cells: the columns below s + 2 as themselves, later ones by parity."""
        cells = self.served.cells
        columns = [[cells[(k, l)].dim for l in range(self.n + 1)] for k in range(self.stable + 2)]
        return {
            f"{k},{l}": dim
            for k in range(self.k_reported + 1)
            for l, dim in enumerate(columns[self.reduce(k)])
            if dim
        }


class ConvergedPage(Page):
    """A page past the one its tower converged at (module docstring): E_r
    is that page as it stands and d_r = 0.  It stores no cell."""

    def __init__(self, served: Page, r: int, r_max: int):
        super().__init__(served.p, r, served.n, served.k_max, r_max)
        self._served = served
        self.stable = served.stable

    @property
    def served(self) -> Page:
        return self._served

    def source(self, k: int, l: int) -> PageCell | None:
        return self.served.source(k, l)

    def d_rank(self, k: int, l: int) -> int:
        return 0

    def d_is_zero(self, k: int, l: int) -> bool:
        return True


class PageTower:
    """Pages 1..r_max with shared representative data."""

    def __init__(self, dc: SwanDoubleComplex, r_max: int | None = None):
        self.dc = dc
        self.p = dc.p
        self.n = dc.n
        self.k_max = dc.k_max
        if r_max is None:
            r_max = self.n + 2
        if r_max < 2:
            raise ValueError(f"r_max {r_max} is below 2: the tower starts at E_2")
        if r_max > self.n + 2:
            raise ValueError(f"r_max {r_max} exceeds n + 2 = {self.n + 2}")
        self.r_max = r_max
        self.H = dc.base.cohomology()
        self.pages: dict[int, Page] = {}
        self._pairings: dict[tuple[int, int, int, int], dict[int, np.ndarray]] = {}
        self._build_page_one()
        self._check_period(self.pages[1])
        for r in range(1, r_max):
            self._turn_page(r)
            page = self.pages[r + 1]
            self._check_period(page)
            if page.r < r_max and self._converged(page):
                self._serve_from(page)
                break
        self._consistency_checks()

    # -- construction ----------------------------------------------------
    def _build_page_one(self):
        dc = self.dc
        page = Page(self.p, 1, self.n, self.k_max, self.r_max)
        d1 = {}
        for l in range(self.n + 1):
            sub = self.H[l]
            for parity in (0, 1):
                d1[(parity, l)] = sub.coordinates_many(dc.apply_h(parity, l, sub.reps))
        for k in range(page.stable + 4):
            for l in range(self.n + 1):
                sub = self.H[l]
                no_gens = np.zeros((dc.base.dim(l), 0), dtype=np.int64)
                cell = PageCell(sub.dim, None, sub.reps, no_gens, np.zeros((0, 0), dtype=np.int64))
                cell.d_matrix = d1[(k % 2, l)]
                page.cells[(k, l)] = cell
        self.pages[1] = page

    def _turn_page(self, r: int):
        page = self.pages[r]
        nxt = self.pages[r + 1] = Page(self.p, r + 1, self.n, self.k_max, self.r_max)
        dim = self.dc.base.dim
        for k in range(nxt.stable + 4):
            for l in range(self.n + 1):
                cell = page.source(k, l)
                src = page.source(k - r, l + r - 1)  # the source of the d_r into (k, l)
                incoming = src.d_matrix if src else np.zeros((cell.dim, 0), dtype=np.int64)
                # ker d_r in its canonical basis, against the d_r images as they are
                sub = Subquotient(kernel_mod(cell.d_matrix, self.p), incoming, self.p)
                # boundary generators: page r's, their certificates padded to
                # offset -r, plus the d_r images into (k, l), whose
                # certificates are the staircases r columns left of it
                gens = cell.gens
                certs = np.vstack([np.zeros((dim(l + r - 1), gens.shape[1]), dtype=np.int64),
                                   cell.certs])
                if src is not None and src.d_matrix.any():
                    vecs = self.dc.apply_h(k - 1, l, _last_block(src.lifts, dim(l)))
                    new = vecs.any(axis=0)
                    gens = np.hstack([gens, vecs[:, new]])
                    certs = np.hstack([certs, src.lifts[:, new]])
                # representative staircases; with nothing killed and nothing
                # incoming, ker d_r is everything and sub.reps is I
                lifts = cell.lifts
                if sub.dim != cell.dim:
                    lifts = matmul_mod(lifts, sub.reps, self.p).astype(np.int64)
                lifts = self._extend_lifts(page, k, l, r, lifts)
                nxt.cells[(k, l)] = PageCell(sub.dim, sub, lifts, gens, certs)

        # differentials d_{r+1}, once every subquotient of page r+1 exists:
        # h of block r, in column k + r
        for (k, l), new_cell in nxt.cells.items():
            row = l - r
            tgt = nxt.source(k + r + 1, row)
            mat = np.zeros((tgt.dim if tgt else 0, new_cell.dim), dtype=np.int64)
            if mat.size:
                vecs = self.dc.apply_h(k + r, row, _last_block(new_cell.lifts, dim(row)))
                mat = self.project_many(r + 1, k + r + 1, row, vecs)
            new_cell.d_matrix = mat

    def _converged(self, page: Page) -> bool:
        """Whether every antidiagonal of `page` adds up to the total
        cohomology of its degree; s = 0..s_r + n + 1 decide (module docstring)."""
        return all(self.antidiagonal_sum(page.r, s) == self.dc.total_cohomology_dim(s)
                   for s in range(page.stable + self.n + 2))

    def _serve_from(self, page: Page):
        """Serve every later page from the converged `page`, whose d_r must vanish."""
        for (k, l), cell in page.cells.items():
            if cell.d_matrix.any():
                raise InvariantError("pages", f"E_{page.r} has converged, but d_{page.r} != 0 at ({k},{l})")
        for r in range(page.r + 1, self.r_max + 1):
            self.pages[r] = ConvergedPage(page, r, self.r_max)

    def _extend_lifts(self, page: Page, k: int, l: int, r: int, lifts: np.ndarray) -> np.ndarray:
        """The staircases `lifts` of a cell at (k, l), blocks 0..r-1, made to
        have total differential zero in column k+r too: corrected by
        certificates and given block r."""
        dim, p = self.dc.base.dim, self.p
        col = k + r
        row = l - r + 1
        if row < 0 or not lifts.shape[1]:  # block r has height dim(l - r) = 0, or no columns
            return np.vstack([lifts, np.zeros((dim(l - r), lifts.shape[1]), dtype=np.int64)])
        sub = self.H[row]
        cell = page.source(col, row)
        z = self.dc.apply_h(col - 1, row, _last_block(lifts, dim(row)))
        # the classes of z must die against the recorded boundaries
        coords = sub.coordinates_many(z)
        if cell.gens.shape[1]:
            beta = FactoredSolve(sub.coordinates_many(cell.gens), p).solve_many(coords)
        else:
            beta = None if coords.any() else np.zeros((0, lifts.shape[1]), dtype=np.int64)
        if beta is None:
            raise InvariantError("pages", f"a class at ({col},{row}) survives its boundaries")
        if beta.any():
            z = np.mod(z - matmul_mod(cell.gens, beta, p), p).astype(np.int64)
            # certificate offsets -(r-1)..-1 from col are staircase blocks 1..r-1
            top = dim(l)
            rest = np.mod(lifts[top:] - matmul_mod(cell.certs, beta, p), p).astype(np.int64)
            lifts = np.vstack([lifts[:top], rest])
        if row == 0:
            if z.any():
                raise InvariantError("pages", f"nonzero residue in row 0 at column {col}")
            return lifts  # block r has height dim(-1) = 0
        # some w with delta_(row-1)·w = sign·z, from the reduced columns of
        # delta_(row-1) that H^row keeps (`CohomologyBasis.preimage`)
        sign = (-1) ** (col + 1) % p
        ws = [sub.preimage(np.mod(sign * v, p)) for v in z.T]
        if any(w is None for w in ws):
            raise InvariantError("pages", f"residue at ({col},{row}) is not a coboundary")
        return np.vstack([lifts, np.stack(ws, axis=1)])

    # -- projections --------------------------------------------------------
    def project(self, r: int, k: int, l: int, cochain: np.ndarray) -> np.ndarray:
        """Coordinates on page r of the class of a cocycle at (k, l)."""
        if l < 0 or l > self.n:
            return np.zeros(0, dtype=np.int64)
        if k > self.pages[r].k_reported:
            raise WindowError(f"column {k} is past the reported range of page {r}")
        return self.project_many(r, k, l, np.reshape(cochain, (-1, 1)))[:, 0]

    def project_many(self, r: int, k: int, l: int, cochains: np.ndarray) -> np.ndarray:
        """Page-r coordinates of the classes of the cocycle columns at (k, l)."""
        coords = self.H[l].coordinates_many(cochains)
        # past the page the tower converged at, the coordinates stay as they are
        for q in range(2, self.pages[r].served.r + 1):
            cell = self.pages[q].source(k, l)
            if cell is None:
                raise WindowError(f"cell ({k},{l}) is outside page {q}")
            coords = cell.sub.coordinates_many(coords)
        return coords

    def leading_vector(self, cls: PageClass) -> np.ndarray:
        """Cochain representative (leading staircase component) of a class."""
        cell = self.pages[cls.r].source(cls.k, cls.l)
        if cell is None:
            raise WindowError(f"cell ({cls.k},{cls.l}) is outside page {cls.r}")
        coords = np.mod(np.asarray(cls.coords, dtype=np.int64), self.p)
        return matmul_mod(cell.lifts[: self.dc.base.dim(cls.l)], coords, self.p).astype(np.int64)

    # -- products -------------------------------------------------------------
    def product(self, r: int, a: PageClass, b: PageClass) -> PageClass:
        """Multiply two page-r classes via total-complex representatives."""
        if a.r != r or b.r != r:
            raise ValueError("classes are not on the requested page")
        k, l = a.k + b.k, a.l + b.l
        if k > self.k_max:
            raise WindowError(f"product column {k} exceeds window {self.k_max}")
        if l > self.n:
            return PageClass(r, k, l, np.zeros(0, dtype=np.int64))
        va = self.leading_vector(a)
        vb = self.leading_vector(b)
        w = self.dc.product(a.k, a.l, va, b.k, b.l, vb)
        return PageClass(r, k, l, self.project(r, k, l, w))

    def basis_class(self, r: int, k: int, l: int, index: int) -> PageClass:
        coords = np.zeros(self.pages[r].dim(k, l), dtype=np.int64)
        coords[index] = 1
        return PageClass(r, k, l, coords)

    def pairing_matrix(self, r: int, k: int, l: int, k2: int, l2: int) -> np.ndarray | None:
        """Matrix of the product pairing into (k+k2, l+l2); None unless the
        target is one-dimensional."""
        page = self.pages[r].served
        if page.dim(k + k2, l + l2) != 1:
            return None
        da, db = page.dim(k, l), page.dim(k2, l2)
        if not (da and db):
            return np.zeros((da, db), dtype=np.int64)
        if k + k2 > self.k_max:
            raise WindowError(f"product column {k + k2} exceeds window {self.k_max}")
        # a pairing depends on its columns only through the cells serving them
        key = (page.r, page.reduce(k), page.reduce(k2), l + l2)
        if key not in self._pairings:
            self._pairings[key] = self._pairings_into(*key)
        return self._pairings[key][l]

    def _pairings_into(self, r: int, k: int, k2: int, row: int) -> dict[int, np.ndarray]:
        """The pairings of columns k and k2 into (k+k2, row), for every split
        of the row, from one projection of all their product cochains."""
        page = self.pages[r]
        splits = [
            (l, page.source(k, l), page.source(k2, row - l))
            for l in range(max(0, row - self.n), min(row, self.n) + 1)
        ]
        # the leading staircase blocks of the basis classes, multiplied
        dim = self.dc.base.dim
        cups = [
            self.dc.product(k, l, a.lifts[: dim(l), i], k2, row - l, b.lifts[: dim(row - l), j])
            for l, a, b in splits for i in range(a.dim) for j in range(b.dim)
        ]
        coords = self.project_many(r, k + k2, row, np.stack(cups, axis=1))[0]
        out, start = {}, 0
        for l, a, b in splits:
            out[l] = coords[start : start + a.dim * b.dim].reshape(a.dim, b.dim)
            start += a.dim * b.dim
        return out

    # -- invariants -------------------------------------------------------------
    def _check_period(self, page: Page):
        """The computed columns s+2, s+3 must repeat s, s+1: the columns
        past them are served by that repetition."""
        s = page.stable
        for k in (s, s + 1):
            for l in range(self.n + 1):
                if not page.cells[(k, l)].repeats(page.cells[(k + 2, l)]):
                    raise InvariantError("pages", f"page {page.r} is not 2-periodic at ({k},{l})")

    def _consistency_checks(self):
        # on every computed cell: d_r o d_r = 0, and dim E_r = dim ker - dim im
        # of d_{r-1}, each d ranked once through the page's memo
        for r in range(1, self.r_max + 1):
            page, prev = self.pages[r], self.pages.get(r - 1)
            for (k, l), cell in page.cells.items():
                nxt = page.source(k + r, l - r + 1)
                if nxt is not None and matmul_mod(nxt.d_matrix, cell.d_matrix, self.p).any():
                    raise InvariantError("pages", f"d_{r} o d_{r} != 0 at ({k},{l})")
                if prev is not None and cell.dim != (
                    prev.dim(k, l) - prev.d_rank(k, l) - prev.d_rank(k - r + 1, l + r - 2)
                ):
                    raise InvariantError("pages", f"dim E_{r}^({k},{l}) != dim ker / im d_{r - 1}")
        # E_2 against H^k(Z/p; H^l), read off the decomposition of H^l
        decs = [decompose(h.module) for h in self.H]
        for (k, l), cell in self.pages[2].cells.items():
            want = decs[l].group_cohomology_dim(k)
            if cell.dim != want:
                raise InvariantError("pages", f"E_2^({k},{l}) is {cell.dim}, not H^{k}: {want}")

    # -- summaries ---------------------------------------------------------------
    def antidiagonal_sum(self, r: int, s: int) -> int:
        return sum(
            self.pages[r].dim(k, s - k) for k in range(max(0, s - self.n), s + 1)
        )


def check_zero_row(tower: PageTower) -> bool:
    """True iff every differential into row 0 vanishes in the trusted region."""
    for r in range(2, tower.r_max + 1):
        page = tower.pages[r]
        if not all(page.d_is_zero(k, r - 1) for k in range(page.trusted_k - r + 1)):
            return False
    return True


def check_odd_page_vanishing(tower: PageTower) -> bool:
    """True iff d_r = 0 for odd r > 1 whenever the source column is >= n."""
    for r in range(3, tower.r_max + 1, 2):
        page = tower.pages[r]
        for k in range(tower.n, page.trusted_k + 1):
            for l in range(tower.n + 1):
                if not page.d_is_zero(k, l):
                    return False
    return True
