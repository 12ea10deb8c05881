"""Pages of the column-filtration spectral sequence of a Swan complex.

The tower turns its pages on the small model (V, D) of the Swan complex
(`swan`): V = sum_k H^*(X), the cell (k, l) a copy of H^l in the basis of
the representatives of `complexes.CohomologyBasis`, and D transferred from
the total differential by the perturbation lemma.  D keeps the column
filtration: its block D_j out of (k, l) lands in (k + j + 1, l - j), and
D_0 is d_1.  The lemma's inclusion iota_inf = sum_j (-H d_h)^j iota is a
filtered chain map V -> Tot that is iota, the representatives, on each
leading column, so V and Tot have the same spectral sequence from E_1 on,
in the same bases: E_1 is V itself.

A class on page r at (k, l) is presented by coordinates against a chain
of subquotients E_1 -> E_2 -> ... (each page a canonical subquotient of
the one before, `linalg.Subquotient`).  A cell stores its dimension, its
subquotient, its d_r as a matrix, and `lead`: the E_1 coordinates of its
basis classes, the product of the representatives along the chain.
Products and pairings read the cocycle x_0 = reps_l·lead, multiply with
the bigraded cochain product and project back; everything else is dense
algebra on matrices no wider than sum_l dim H^l.

A V-staircase of a class of E_(r+1)^(k,l) is v = v_0 + ... + v_(r-1),
v_a in the cell (k + a, l - a), whose leading block v_0 is the class's
lead and whose D vanishes in columns k + 1..k + r:

    (Dv)_(k+i) = sum_(a<i) D_(i-1-a) v_a = 0,   i = 1..r,

D_(i-1-a) taken out of (k + a, l - a) (the equation at i = 1 says that v_0
is a d_1-cocycle).  Then d_(r+1) of the class is

    (Dv)_(k+r+1) = sum_(a<r) D_(r-a) v_a,

projected through the subquotients at (k + r + 1, l - r).  A block v_r
would add D_0 v_r, a d_1 image, which every page from E_2 on kills, so it
is left out.  For given leads the equations are one linear system in
v_1..v_(r-1), block lower triangular with D_0 on its diagonal.  Its blocks
are the D_j out of the cells (k + a, l - a), which depend on k only
through its parity, so the tower factors the system once per
(k mod 2, l, r) (`_band`) and solves it for all classes of a cell at once,
the free variables set to 0.

- A solution exists.  Write Z_r^k for the x in F^k, the columns >= k,
  with Dx in F^(k+r), and Zbar_r^k for their components in column k.
  E_(r+1)^k = Zbar_(r+1)^k / Bbar_r^k, with Bbar_r^k the components in
  column k of D Z_r^(k-r) (F^k already contains them).  Page 1's leads
  are the identity.  A lead of page r+1 is a combination of page r's
  leads, in Zbar_r, whose class lies in ker d_r = Zbar_(r+1) / Bbar_(r-1);
  as Bbar_(r-1) lies in Zbar_(r+1), so does the lead.  That is, some x in
  Z_(r+1)^k has it as its component in column k, and x's components in
  columns k+1..k+r-1 solve the system.  A system without a solution is a
  broken page, `InvariantError` at `pages`.
- d_(r+1) does not depend on the solution.  Two solutions v, v' differ by
  w = v' - v in F^(k+1), with Dw in F^(k+r+1): both have D zero in columns
  k+1..k+r.  So w lies in Z_r^(k+1), and (Dw)_(k+r+1), the difference of
  the two values, is the component in column k + r + 1 of an element of
  D Z_r^(k+1), that is of Bbar_r^(k+r+1), which E_(r+1) divides out.

So every d_(r+1) matrix, and with it every subquotient and lead, is fixed
by D and the canonical bases alone.  `tests/test_pages.py` checks that
iota_inf of the V-staircase of every class of E_(r+1)^(k,l) has total
differential zero in columns k..k+r, and that its component in column
k + r + 1 projects to the tower's d_(r+1).

Columns differ only in parity, except that column 0 has no incoming d_1.
So page r is computed only for columns 0..s_r+3, with s_r = r(r-1)/2
the first column whose cell cannot see column 0 (derived in
`stable_start`).  The cells at s_r, s_r+1 are checked against those at
s_r+2, s_r+3, and every later column is served by the cell of its parity
among s_r, s_r+1 (`Page.source`): a cell holds nothing of its column, so
every page cell is stored once and no column is ever copied.  K_max, the
trusted bound k <= K_max - 2r and the reported range only decide what a
report shows.

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
in the same order (d depends on k only through its parity), so the reduction of d_s makes the pairs of
d_(s+2), two columns to the left and at the same distances.  rank d_r
out of (k, l) reads only the pairs of d_(k+l), and dim E_r^(k,l) those
of d_(k+l-1) and d_(k+l), so for k + l >= n + 1 both equal their values
at (k+2, l), for every r.  This counts pairs and says nothing of the
bases the cells store, so the period of the cells is taken from s_r.

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
comes in, so `sub.reps` is I, its coordinates are the identity, and the
leads, the projections and so the pairing matrices are page r's, and by
induction those of every later page.  So `PageTower` stops at the first
such page r < r_max: pages r+1..r_max are `ConvergedPage`s, which keep
their own r, trusted bound and reported range, store no cell, and serve
page r's cells with d = 0.  The test trusts the total dims, so the tower
raises `InvariantError` unless every computed d_r of page r is zero, and
every computed page still passes the period, ker/im and E_2 checks.

The test compares two results of one D: the antidiagonals of pages turned
on (V, D), and the total dims that `swan` reads off the ranks of D.  It
catches a tower that miscounts, not a wrong D.  The checks independent of
D are tests: `tests/test_page_oracle.py` counts every page's dims and
ranks off a filtered reduction of the total complex itself, and
`tests/test_clearing.py` checks the total dims against plain ranks of it.
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
    the d_r out of k and into k from k - r (its subquotient) and the lead
    at k (its lead), and subquotients of pages <= r+1 at k + r + 1 (its
    d_{r+1}); its band system reads D alone.  Let L_r bound how far left of
    k page r reads, directly or through the cells it reads.  Then L_1 = 0
    and, from the reads at k - r, k and k + r + 1,
    L_{r+1} = max(L_r + r, L_r, L_{r+1} - r - 1) = L_r + r,
    so L_r = r(r-1)/2.  A cell at k >= L_r reads only columns >= 0, and since
    the complex depends on the column only through its parity, the same
    computation moved by two columns builds the cell at k + 2.  The one
    difference between columns, that nothing lies left of column 0, is
    out of its reach.
    """
    return r * (r - 1) // 2


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
    """One cell of a page r at (k, l), its matrices all int64.

    - `sub`: the `Subquotient` of page r-1's cell that is this one (None on
      page 1);
    - `lead`: the E_1 coordinates of the basis classes, as columns: the
      product of the representatives of `sub` and of every subquotient
      before it;
    - `d_matrix`: d_r, to the cell r columns right and r-1 rows down;
    - `cocycles`: reps_l·lead, the cocycles of the basis classes, once a
      product or pairing has read them (`PageTower._leading_cocycles`).

    None of it names the cell's column, so the same cell serves every
    column of its parity from s_r on.
    """

    __slots__ = ("dim", "sub", "lead", "d_matrix", "cocycles")

    def __init__(self, dim, sub, lead):
        self.dim = dim
        self.sub = sub
        self.lead = lead
        self.d_matrix = None
        self.cocycles = None

    def repeats(self, other: "PageCell") -> bool:
        """Whether this cell, computed at another column, equals `other`."""
        def state(cell):  # all int64: equal shapes and bytes mean equal arrays
            sub = () if cell.sub is None else (cell.sub.b, cell.sub.reps)
            arrays = (cell.d_matrix, cell.lead) + sub
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
            self._ranks[key] = rank_mod(cell.d_matrix, self.p) if cell.d_matrix.any() else 0
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
    """Pages 1..r_max of the spectral sequence of (V, D) (module docstring)."""

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
        self._bands: dict[tuple[int, int, int], tuple[FactoredSolve, np.ndarray, np.ndarray]] = {}
        self._pairings: dict[tuple[int, int, int, int], dict[int, np.ndarray]] = {}
        empty = np.zeros((0, 0), dtype=np.int64)
        self._nothing = Subquotient(empty, empty, self.p)
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
        """E_1 is V, each cell in the basis of H^l, and d_1 is D_0."""
        page = Page(self.p, 1, self.n, self.k_max, self.r_max)
        eyes = [np.eye(h.dim, dtype=np.int64) for h in self.H]
        for k in range(page.stable + 4):
            for l in range(self.n + 1):
                cell = PageCell(self.H[l].dim, None, eyes[l])
                cell.d_matrix = self.dc._transfer_blocks(k, l)[0]
                page.cells[(k, l)] = cell
        self.pages[1] = page

    def _turn_page(self, r: int):
        page = self.pages[r]
        nxt = self.pages[r + 1] = Page(self.p, r + 1, self.n, self.k_max, self.r_max)
        for k in range(nxt.stable + 4):
            for l in range(self.n + 1):
                cell = page.source(k, l)
                if not cell.dim:  # the subquotient of a zero space is empty
                    nxt.cells[(k, l)] = PageCell(0, self._nothing, cell.lead)
                    continue
                src = page.source(k - r, l + r - 1)  # the source of the d_r into (k, l)
                incoming = src.d_matrix if src else np.zeros((cell.dim, 0), dtype=np.int64)
                # ker d_r in its canonical basis, against the d_r images as they are
                sub = Subquotient(kernel_mod(cell.d_matrix, self.p), incoming, self.p)
                # with nothing killed and nothing incoming, sub.reps is I
                lead = cell.lead
                if sub.dim != cell.dim:
                    lead = matmul_mod(lead, sub.reps, self.p).astype(np.int64)
                nxt.cells[(k, l)] = PageCell(sub.dim, sub, lead)

        # d_{r+1}, once every subquotient of page r+1 exists
        for (k, l), new_cell in nxt.cells.items():
            tgt = nxt.source(k + r + 1, l - r)
            mat = np.zeros((tgt.dim if tgt else 0, new_cell.dim), dtype=np.int64)
            if mat.size:
                tail = self._band(k, l, r)[2]
                image = matmul_mod(tail, self._staircases(k, l, r, new_cell.lead), self.p)
                if image.any():
                    mat = self._project_e1(r + 1, k + r + 1, l - r, image.astype(np.int64))
            new_cell.d_matrix = mat

    def _band(self, k: int, l: int, r: int) -> tuple[FactoredSolve, np.ndarray, np.ndarray]:
        """The band system of the V-staircases at (k, l) on page r + 1
        (module docstring), cached per (k mod 2, l, r): the factored
        coefficients of v_1..v_(r-1) in the equations of columns
        k+1..k+r, minus the coefficients of v_0 there, and the map of
        (v_0, ..., v_(r-1)) to the component of Dv in column k + r + 1."""
        key = (k % 2, l, r)
        if key not in self._bands:
            dims = self.dc.base.cohomology_dims()
            # block a of the columns is cell (k + a, l - a), block i of the
            # rows cell (k + i + 1, l - i): D_j out of column block a lands
            # in row block a + j
            col_at = np.cumsum([0] + [dims[l - a] if a <= l else 0 for a in range(r)])
            row_at = np.cumsum([0] + [dims[l - i] if i <= l else 0 for i in range(r + 1)])
            band = np.zeros((row_at[-1], col_at[-1]), dtype=np.int64)
            for a in range(min(r, l + 1)):
                for j, block in enumerate(self.dc._transfer_blocks(k + a, l - a)[: r + 1 - a]):
                    band[row_at[a + j] : row_at[a + j + 1], col_at[a] : col_at[a + 1]] = block
            rows, lead = row_at[r], col_at[1]
            self._bands[key] = (FactoredSolve(band[:rows, lead:], self.p),
                                np.mod(-band[:rows, :lead], self.p), band[rows:])
        return self._bands[key]

    def _staircases(self, k: int, l: int, r: int, lead: np.ndarray) -> np.ndarray:
        """The V-staircases at (k, l) on page r + 1 whose leading blocks are
        the columns of `lead`, as columns: v_0 on top, then v_1..v_(r-1)."""
        solver, minus_head, _ = self._band(k, l, r)
        rest = solver.solve_many(matmul_mod(minus_head, lead, self.p))
        if rest is None:
            raise InvariantError("pages", f"a class of E_{r + 1}^({k},{l}) has no V-staircase")
        return np.vstack([lead, rest])

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
        return self._project_e1(r, k, l, self.H[l].coordinates_many(cochains))

    def _project_e1(self, r: int, k: int, l: int, coords: np.ndarray) -> np.ndarray:
        """Page-r coordinates of the classes of E_1 coordinate columns at (k, l)."""
        # past the page the tower converged at, the coordinates stay as they are
        for q in range(2, self.pages[r].served.r + 1):
            cell = self.pages[q].source(k, l)
            if cell is None:
                raise WindowError(f"cell ({k},{l}) is outside page {q}")
            coords = cell.sub.coordinates_many(coords)
        return coords

    def _leading_cocycles(self, cell: PageCell, l: int) -> np.ndarray:
        """x_0 = reps_l·lead: the cocycles of the basis classes of a cell in
        row l, as columns, computed once per cell."""
        if cell.cocycles is None:
            cell.cocycles = matmul_mod(self.H[l].reps, cell.lead, self.p).astype(np.int64)
        return cell.cocycles

    def leading_vector(self, cls: PageClass) -> np.ndarray:
        """The cocycle reps_l·lead·coords that represents a class in its own column."""
        cell = self.pages[cls.r].source(cls.k, cls.l)
        if cell is None:
            raise WindowError(f"cell ({cls.k},{cls.l}) is outside page {cls.r}")
        coords = np.mod(np.asarray(cls.coords, dtype=np.int64), self.p)
        return matmul_mod(self._leading_cocycles(cell, cls.l), coords, self.p).astype(np.int64)

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
        # the leading cocycles of the basis classes, multiplied
        leading = {l: (self._leading_cocycles(a, l), self._leading_cocycles(b, row - l))
                   for l, a, b in splits}
        cups = [
            self.dc.product(k, l, leading[l][0][:, i], k2, row - l, leading[l][1][:, j])
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
                if (nxt is not None and nxt.d_matrix.any() and cell.d_matrix.any()
                        and matmul_mod(nxt.d_matrix, cell.d_matrix, self.p).any()):
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
