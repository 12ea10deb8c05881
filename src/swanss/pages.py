"""Pages of the column-filtration spectral sequence of a Swan complex.

A class on page r at (k, l) is presented by coordinates against a
canonical subquotient chain E_1 -> E_2 -> ... (E_1 is cohomology of the
column), but every basis class also carries an explicit total-complex
representative: a staircase x_0, ..., x_{r-1} with x_i in column k+i such
that the total differential of the sum vanishes in columns k..k+r-1.
The page differential evaluates the horizontal map on the last staircase
component; products multiply leading components with the bigraded cochain
product and project back.  This makes representative choices canonical
(deterministic solves) while all heavy linear algebra stays at the
cochain level, done once per row.

Columns differ only in parity, except that column 0 has no incoming d_1.
So page r is computed only for columns 0..s_r+3, with s_r = r(r-1)/2
the first column whose cell cannot see column 0 (derived in
`stable_start`).  The cells at s_r, s_r+1 are checked against those at
s_r+2, s_r+3, and every later column is served by a shift of two: the
same subquotient and differential, with the columns of the staircases
moved.  K_max, the trusted bound k <= K_max - 2r and the reported range
only decide what a report shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvariantError
from .gmodule import group_cohomology
from .linalg import FactoredSolve, PrimeFieldMatrix, Subquotient, kernel_mod
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


def _shift(cochains: dict[int, np.ndarray], by: int) -> dict[int, np.ndarray]:
    return {col + by: vec for col, vec in cochains.items()}


def _same(x, y) -> bool:
    """Equality of nested lists, tuples and dicts of arrays."""
    if isinstance(x, dict):
        return isinstance(y, dict) and x.keys() == y.keys() and all(_same(x[c], y[c]) for c in x)
    if isinstance(x, (list, tuple)):
        return isinstance(y, (list, tuple)) and len(x) == len(y) and all(map(_same, x, y))
    return np.array_equal(x, y)


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
    __slots__ = ("k", "l", "r", "dim", "sub", "lifts", "boundary_gens", "d_matrix", "trusted")

    def __init__(self, k, l, r, dim, sub, lifts, trusted):
        self.k = k
        self.l = l
        self.r = r
        self.dim = dim
        self.sub = sub              # Subquotient in previous-page coords (None on page 1)
        self.lifts = lifts          # per basis element: {column: cochain}
        self.boundary_gens = []     # (cochain, certificate {column: cochain}), d-images of earlier pages
        self.d_matrix = None        # PrimeFieldMatrix to the (k+r, l-r+1) cell
        self.trusted = trusted

    def shifted(self, k: int, trusted: bool) -> "PageCell":
        """This cell moved to column k: the same subquotient and d_r, with
        the columns of its staircases and certificates moved."""
        by = k - self.k
        cell = PageCell(k, self.l, self.r, self.dim, self.sub,
                        [_shift(lift, by) for lift in self.lifts], trusted)
        cell.boundary_gens = [(vec, _shift(cert, by)) for vec, cert in self.boundary_gens]
        cell.d_matrix = self.d_matrix
        return cell

    def repeats(self, other: "PageCell") -> bool:
        """Whether this cell, moved to the column of `other`, equals it."""
        def state(cell):
            sub = () if cell.sub is None else (cell.sub.b, cell.sub.reps)
            return cell.dim, sub, cell.d_matrix.a, cell.lifts, cell.boundary_gens

        return _same(state(self.shifted(other.k, other.trusted)), state(other))


class Page:
    def __init__(self, r: int, n: int, k_max: int, r_max: int):
        self.r = r
        self.n = n
        self.k_max = k_max
        # a reporting bound only: dims_json lists columns up to
        # K_max + T(r_max) - T(r - 1), with T(m) = m(m+1)/2
        self.k_reported = k_max + stable_start(r_max + 1) - stable_start(r)
        self.stable = stable_start(r)
        self.cells: dict[tuple[int, int], PageCell] = {}  # columns 0..stable+3
        self._dims: dict[tuple[int, int], int] = {}
        self._ranks: dict[tuple[int, int], int] = {}

    @property
    def trusted_k(self) -> int:
        return self.k_max - 2 * self.r

    def reduce(self, k: int) -> int:
        """The column, k itself or one of the first period, whose cell serves k."""
        s = self.stable
        return k if k < s + 2 else s + (k - s) % 2

    def source(self, k: int, l: int) -> PageCell | None:
        """The computed cell that serves (k, l): equal to it up to the
        columns of its staircases.  None outside the page."""
        if k < 0 or not 0 <= l <= self.n:
            return None
        return self.cells[(self.reduce(k), l)]

    def cell(self, k: int, l: int) -> PageCell | None:
        """The cell at (k, l), computed or served by shifting its source."""
        cell = self.source(k, l)
        if cell is None or cell.k == k:
            return cell
        return cell.shifted(k, k <= self.trusted_k)

    def dim(self, k: int, l: int) -> int:
        # memoized: the duality checks ask for millions of dims
        dim = self._dims.get((k, l))
        if dim is None:
            cell = self.source(k, l)
            dim = self._dims[(k, l)] = cell.dim if cell else 0
        return dim

    def d_rank(self, k: int, l: int) -> int:
        cell = self.source(k, l)
        if cell is None:
            return 0
        if (cell.k, l) not in self._ranks:
            self._ranks[(cell.k, l)] = cell.d_matrix.rank()
        return self._ranks[(cell.k, l)]

    def dims_json(self) -> dict[str, int]:
        return {
            f"{k},{l}": self.dim(k, l)
            for k in range(self.k_reported + 1)
            for l in range(self.n + 1)
            if self.dim(k, l)
        }


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
        base = dc.base
        self.H = base.cohomology()
        self._delta_solvers = [FactoredSolve(base.delta(l).a, self.p) for l in range(self.n + 1)]
        self.pages: dict[int, Page] = {}
        self._pairings: dict[tuple[int, int, int, int], dict[int, np.ndarray]] = {}
        self._build_page_one()
        self._check_period(self.pages[1])
        for r in range(1, r_max):
            self._turn_page(r)
            self._check_period(self.pages[r + 1])
        self._consistency_checks()

    # -- construction ----------------------------------------------------
    def _build_page_one(self):
        dc = self.dc
        page = Page(1, self.n, self.k_max, self.r_max)
        d1 = {}
        for l in range(self.n + 1):
            sub = self.H[l].subquotient
            for parity in (0, 1):
                mat = sub.coordinates_many(dc.apply_h(parity, l, sub.reps))
                d1[(parity, l)] = PrimeFieldMatrix(dc.field, mat)
        for k in range(page.stable + 4):
            for l in range(self.n + 1):
                sub = self.H[l].subquotient
                lifts = [{k: sub.reps[:, j].copy()} for j in range(sub.dim)]
                cell = PageCell(k, l, 1, sub.dim, None, lifts, k <= page.trusted_k)
                cell.d_matrix = d1[(k % 2, l)]
                page.cells[(k, l)] = cell
        self.pages[1] = page

    def _turn_page(self, r: int):
        page = self.pages[r]
        nxt = self.pages[r + 1] = Page(r + 1, self.n, self.k_max, self.r_max)
        for k in range(nxt.stable + 4):
            for l in range(self.n + 1):
                cell = page.cell(k, l)
                src = page.cell(k - r, l + r - 1)  # the source of the d_r into (k, l)
                incoming = src.d_matrix.a if src else np.zeros((cell.dim, 0), dtype=np.int64)
                # Subquotient brings both spans to their canonical bases
                sub = Subquotient(kernel_mod(cell.d_matrix.a, self.p), incoming, self.p)
                new_cell = PageCell(k, l, r + 1, sub.dim, sub, [], k <= nxt.trusted_k)
                # boundary generators: page r's, plus the d_r images into (k, l)
                new_cell.boundary_gens = list(cell.boundary_gens)
                if src is not None and not src.d_matrix.is_zero():
                    for lift in src.lifts:
                        top = lift.get(k - 1)
                        if top is None:
                            continue
                        vec = self.dc.apply_h(k - 1, l, top)
                        if np.any(vec):
                            new_cell.boundary_gens.append((vec, lift))
                # representative staircases
                new_cell.lifts = [self._combine_lifts(cell, sub.reps[:, j]) for j in range(sub.dim)]
                self._extend_lifts(page, k, l, r, new_cell.lifts)
                nxt.cells[(k, l)] = new_cell

        # differentials d_{r+1}, once every subquotient of page r+1 exists
        for (k, l), new_cell in nxt.cells.items():
            row = l - r
            tgt = nxt.source(k + r + 1, row)
            tgt_dim = tgt.dim if tgt else 0
            mat = np.zeros((tgt_dim, new_cell.dim), dtype=np.int64)
            tops = [(j, lift[k + r]) for j, lift in enumerate(new_cell.lifts) if k + r in lift]
            if tgt_dim and tops:
                vecs = self.dc.apply_h(k + r, row, np.stack([v for _, v in tops], axis=1))
                mat[:, [j for j, _ in tops]] = self.project_many(r + 1, k + r + 1, row, vecs)
            new_cell.d_matrix = PrimeFieldMatrix(self.dc.field, mat)

    def _combine_lifts(self, cell: PageCell, coords: np.ndarray) -> dict[int, np.ndarray]:
        out: dict[int, np.ndarray] = {}
        for i, c in enumerate(coords):
            c = int(c) % self.p
            if not c:
                continue
            for col, vec in cell.lifts[i].items():
                if col in out:
                    out[col] = np.mod(out[col] + c * vec, self.p)
                else:
                    out[col] = np.mod(c * vec, self.p)
        return out

    def _extend_lifts(self, page: Page, k: int, l: int, r: int, lifts: list[dict]):
        """Make the total differential of each staircase vanish in column k+r."""
        col = k + r
        row = l - r + 1
        if row < 0:
            return
        sub = self.H[row].subquotient
        gens = page.cell(col, row).boundary_gens
        if gens:
            gmat = sub.coordinates_many(np.stack([vec for vec, _ in gens], axis=1))
            solver = FactoredSolve(gmat, self.p)
        sign = (-1) ** (col + 1) % self.p
        for lift in lifts:
            top = lift.get(col - 1)
            z = self.dc.apply_h(col - 1, row, top) if top is not None else np.zeros(
                self.dc.base.dim(row), dtype=np.int64)
            # the class of z must die against the recorded boundaries
            coords = sub.coordinates(z)
            beta = solver.solve(coords) if gens else (None if np.any(coords) else ())
            if beta is None:
                raise InvariantError("pages", f"a class at ({col},{row}) survives its boundaries")
            for m, b in enumerate(beta):
                b = int(b) % self.p
                if not b:
                    continue
                z = np.mod(z - b * gens[m][0], self.p)
                for ccol, cvec in gens[m][1].items():
                    lift[ccol] = np.mod(lift.get(ccol, 0) - b * cvec, self.p)
            if row == 0:
                if np.any(z):
                    raise InvariantError("pages", f"nonzero residue in row 0 at column {col}")
                continue
            w = self._delta_solvers[row - 1].solve(np.mod(sign * z, self.p))
            if w is None:
                raise InvariantError("pages", f"residue at ({col},{row}) is not a coboundary")
            lift[col] = w

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
        coords = self.H[l].subquotient.coordinates_many(cochains)
        for q in range(2, r + 1):
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
        out = np.zeros(self.dc.base.dim(cls.l), dtype=np.int64)
        for i, c in enumerate(np.asarray(cls.coords, dtype=np.int64)):
            if c % self.p:
                # the leading component of a served cell is that of its source
                out = np.mod(out + int(c) * cell.lifts[i][cell.k], self.p)
        return out

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
        page = self.pages[r]
        if page.dim(k + k2, l + l2) != 1:
            return None
        da, db = page.dim(k, l), page.dim(k2, l2)
        if not (da and db):
            return np.zeros((da, db), dtype=np.int64)
        if k + k2 > self.k_max:
            raise WindowError(f"product column {k + k2} exceeds window {self.k_max}")
        # a pairing depends on its columns only through the cells serving them
        key = (r, page.reduce(k), page.reduce(k2), l + l2)
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
        # the leading staircase components of the basis classes, multiplied
        cups = [
            self.dc.product(k, l, a.lifts[i][a.k], k2, row - l, b.lifts[j][b.k])
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
                if nxt is not None and not (nxt.d_matrix @ cell.d_matrix).is_zero():
                    raise InvariantError("pages", f"d_{r} o d_{r} != 0 at ({k},{l})")
                if prev is not None and cell.dim != (
                    prev.dim(k, l) - prev.d_rank(k, l) - prev.d_rank(k - r + 1, l + r - 2)
                ):
                    raise InvariantError("pages", f"dim E_{r}^({k},{l}) != dim ker / im d_{r - 1}")
        # E_2 against group cohomology of the module-algebra route
        page = self.pages[2]
        expected = [[group_cohomology(h.module, k).dim for k in range(3)] for h in self.H]
        for (k, l), cell in page.cells.items():
            want = expected[l][k] if k < 3 else expected[l][2 if k % 2 == 0 else 1]
            if cell.dim != want:
                raise InvariantError("pages", f"E_2^({k},{l}) is {cell.dim}, not H^{k}: {want}")

    # -- summaries ---------------------------------------------------------------
    def column_sum(self, r: int, k: int) -> int:
        return sum(self.pages[r].dim(k, l) for l in range(self.n + 1))

    def antidiagonal_sum(self, r: int, s: int) -> int:
        return sum(
            self.pages[r].dim(k, s - k) for k in range(max(0, s - self.n), s + 1)
        )

    def windowed_euler(self, r: int) -> Fraction:
        """Average alternating sum over one column period, from trusted cells."""
        page = self.pages[r]
        k_even = page.trusted_k - (page.trusted_k % 2)
        k_odd = k_even - 1
        even = sum((-1) ** l * page.dim(k_even, l) for l in range(self.n + 1))
        odd = sum((-1) ** l * page.dim(k_odd, l) for l in range(self.n + 1))
        return Fraction(even - odd, 2)


def compute_pages(dc: SwanDoubleComplex, r_max: int | None = None) -> PageTower:
    return PageTower(dc, r_max)


def check_zero_row(tower: PageTower) -> bool:
    """True iff every differential into row 0 vanishes in the trusted region."""
    for r in range(2, tower.r_max + 1):
        page = tower.pages[r]
        cells = (page.source(k, r - 1) for k in range(page.trusted_k - r + 1))
        if any(cell is not None and not cell.d_matrix.is_zero() for cell in cells):
            return False
    return True


def check_odd_page_vanishing(tower: PageTower) -> bool:
    """True iff d_r = 0 for odd r > 1 whenever the source column is >= n."""
    for r in range(3, tower.r_max + 1, 2):
        page = tower.pages[r]
        for k in range(tower.n, page.trusted_k + 1):
            for l in range(tower.n + 1):
                if not page.source(k, l).d_matrix.is_zero():
                    return False
    return True
