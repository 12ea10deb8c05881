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

Only column parity distinguishes columns of the Swan complex, so cells
beyond the window are still exact; the trusted bound k <= K_max - 2r is
reported and all cross-checks restrict to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gmodule import group_cohomology
from .linalg import FactoredSolve, PrimeFieldMatrix, Subquotient, kernel_mod
from .swan import SwanDoubleComplex, WindowError


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


class Page:
    def __init__(self, r: int, n: int, k_max: int, k_edge: int):
        self.r = r
        self.n = n
        self.k_max = k_max
        self.k_edge = k_edge  # last column with computed cells on this page
        self.cells: dict[tuple[int, int], PageCell] = {}

    @property
    def trusted_k(self) -> int:
        return self.k_max - 2 * self.r

    def cell(self, k: int, l: int) -> PageCell | None:
        return self.cells.get((k, l))

    def dim(self, k: int, l: int) -> int:
        cell = self.cells.get((k, l))
        return cell.dim if cell else 0

    def d_rank(self, k: int, l: int) -> int:
        cell = self.cells.get((k, l))
        if cell is None or cell.d_matrix is None:
            return 0
        return cell.d_matrix.rank()

    def dims_json(self) -> dict[str, int]:
        return {
            f"{k},{l}": cell.dim
            for (k, l), cell in sorted(self.cells.items())
            if cell.dim
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
        if r_max > self.n + 2:
            raise ValueError(f"r_max {r_max} exceeds n + 2 = {self.n + 2}")
        self.r_max = r_max
        # Pad the internal window so the shrinking computed edge never
        # enters the reported trusted region k <= K_max - 2r: page r loses
        # r-1 columns and its differentials reach r further.
        self.k_internal = self.k_max + (r_max * (r_max + 1)) // 2
        base = dc.base
        self.H = base.cohomology()
        self._delta_solvers = [FactoredSolve(base.delta(l).a, self.p) for l in range(self.n + 1)]
        self.pages: dict[int, Page] = {}
        self._pairings: dict[tuple[int, int, int, int], dict[int, np.ndarray]] = {}
        self._build_page_one()
        for r in range(1, r_max):
            self._turn_page(r)
        self._consistency_checks()

    # -- construction ----------------------------------------------------
    def _build_page_one(self):
        dc = self.dc
        page = Page(1, self.n, self.k_max, self.k_internal)
        d1 = {}
        for l in range(self.n + 1):
            sub = self.H[l].subquotient
            for parity in (0, 1):
                mat = sub.coordinates_many(dc.apply_h(parity, l, sub.reps))
                d1[(parity, l)] = PrimeFieldMatrix(dc.field, mat)
        for k in range(page.k_edge + 1):
            for l in range(self.n + 1):
                sub = self.H[l].subquotient
                lifts = [{k: sub.reps[:, j].copy()} for j in range(sub.dim)]
                cell = PageCell(k, l, 1, sub.dim, None, lifts, k <= page.trusted_k)
                cell.d_matrix = d1[(k % 2, l)]
                page.cells[(k, l)] = cell
        self.pages[1] = page

    def _incoming_matrix(self, page: Page, k: int, l: int, dim: int) -> np.ndarray:
        src = page.cell(k - page.r, l + page.r - 1)
        if src is None or src.d_matrix is None or src.dim == 0:
            return np.zeros((dim, 0), dtype=np.int64)
        return src.d_matrix.a

    def _turn_page(self, r: int):
        page = self.pages[r]
        nxt = Page(r + 1, self.n, self.k_max, page.k_edge - r)

        # 1. subquotients and dimensions
        for (k, l), cell in page.cells.items():
            if k > nxt.k_edge:
                continue
            out = cell.d_matrix.a
            # Subquotient brings both spans to their canonical bases
            kernel = kernel_mod(out, self.p)
            sub = Subquotient(kernel, self._incoming_matrix(page, k, l, cell.dim), self.p)
            new_cell = PageCell(k, l, r + 1, sub.dim, sub, [], k <= nxt.trusted_k)
            nxt.cells[(k, l)] = new_cell

        # 2. boundary generators for the next page: previous ones plus d_r images
        for (k, l), cell in page.cells.items():
            if (k, l) in nxt.cells:
                nxt.cells[(k, l)].boundary_gens = list(cell.boundary_gens)
        for (k, l), cell in page.cells.items():
            target = (k + r, l - r + 1)
            if target not in nxt.cells or cell.d_matrix is None or cell.d_matrix.is_zero():
                continue
            for lift in cell.lifts:
                top = lift.get(k + r - 1)
                if top is None:
                    continue
                vec = self.dc.apply_h(k + r - 1, l - r + 1, top)
                if np.any(vec):
                    nxt.cells[target].boundary_gens.append((vec, lift))

        # 3. representative staircases
        for (k, l), new_cell in nxt.cells.items():
            cell = page.cells[(k, l)]
            for j in range(new_cell.dim):
                coords = new_cell.sub.reps[:, j]
                lift = self._combine_lifts(cell, coords)
                self._extend_lift(page, k, l, r, lift)
                new_cell.lifts.append(lift)

        # 4. differentials d_{r+1}; cells whose target column fell off the
        # computed edge keep d_matrix = None and are never consumed upstream
        self.pages[r + 1] = nxt
        for (k, l), new_cell in nxt.cells.items():
            row = l - r
            if 0 <= row <= self.n and k + r + 1 > nxt.k_edge:
                new_cell.d_matrix = None
                continue
            tgt = nxt.cell(k + r + 1, row)
            tgt_dim = tgt.dim if tgt else 0
            mat = np.zeros((tgt_dim, new_cell.dim), dtype=np.int64)
            tops = [(j, lift[k + r]) for j, lift in enumerate(new_cell.lifts) if k + r in lift]
            if tgt_dim and row >= 0 and tops:
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

    def _extend_lift(self, page: Page, k: int, l: int, r: int, lift: dict[int, np.ndarray]):
        """Make the total differential of the staircase vanish in column k+r."""
        col = k + r
        row = l - r + 1
        if row < 0:
            return
        top = lift.get(col - 1)
        z = (
            self.dc.apply_h(col - 1, row, top)
            if top is not None
            else np.zeros(self.dc.base.dim(row), dtype=np.int64)
        )
        target = page.cell(col, row)
        gens = target.boundary_gens if target else []
        if gens:
            gen_vecs = [g[0] for g in gens]
            sub = self.H[row].subquotient
            gmat = sub.coordinates_many(np.stack(gen_vecs, axis=1))
            beta = FactoredSolve(gmat, self.p).solve(sub.coordinates(z))
            assert beta is not None, "page class failed to die against recorded boundaries"
            for m, b in enumerate(beta):
                b = int(b) % self.p
                if not b:
                    continue
                z = np.mod(z - b * gen_vecs[m], self.p)
                for ccol, cvec in gens[m][1].items():
                    cur = lift.get(ccol)
                    lift[ccol] = np.mod((cur if cur is not None else 0) - b * cvec, self.p)
        else:
            sub = self.H[row].subquotient
            assert not np.any(sub.coordinates(z)), "no boundaries available to absorb a nonzero class"
        if row == 0:
            assert not np.any(z), "nonzero residue in the bottom row"
            return
        sign = (-1) ** (col + 1) % self.p
        w = self._delta_solvers[row - 1].solve(np.mod(sign * z, self.p))
        assert w is not None, "residue of a dying class is not a coboundary"
        lift[col] = w

    # -- projections --------------------------------------------------------
    def project(self, r: int, k: int, l: int, cochain: np.ndarray) -> np.ndarray:
        """Coordinates on page r of the class of a cocycle at (k, l)."""
        if l < 0 or l > self.n:
            return np.zeros(0, dtype=np.int64)
        return self.project_many(r, k, l, np.reshape(cochain, (-1, 1)))[:, 0]

    def project_many(self, r: int, k: int, l: int, cochains: np.ndarray) -> np.ndarray:
        """Page-r coordinates of the classes of the cocycle columns at (k, l)."""
        coords = self.H[l].subquotient.coordinates_many(cochains)
        for q in range(2, r + 1):
            cell = self.pages[q].cell(k, l)
            if cell is None:
                raise WindowError(f"cell ({k},{l}) outside the computed window")
            coords = cell.sub.coordinates_many(coords)
        return coords

    def leading_vector(self, cls: PageClass) -> np.ndarray:
        """Cochain representative (leading staircase component) of a class."""
        cell = self.pages[cls.r].cell(cls.k, cls.l)
        if cell is None:
            raise WindowError(f"cell ({cls.k},{cls.l}) outside the computed window")
        out = np.zeros(self.dc.base.dim(cls.l), dtype=np.int64)
        for i, c in enumerate(np.asarray(cls.coords, dtype=np.int64)):
            if c % self.p:
                out = np.mod(out + int(c) * cell.lifts[i][cls.k], self.p)
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
        cell = self.pages[r].cell(k, l)
        coords = np.zeros(cell.dim, dtype=np.int64)
        coords[index] = 1
        return PageClass(r, k, l, coords)

    def pairing_matrix(self, r: int, k: int, l: int, k2: int, l2: int) -> np.ndarray | None:
        """Matrix of the product pairing into (k+k2, l+l2); None unless the
        target is one-dimensional."""
        if self.pages[r].dim(k + k2, l + l2) != 1:
            return None
        da, db = self.pages[r].dim(k, l), self.pages[r].dim(k2, l2)
        if not (da and db):
            return np.zeros((da, db), dtype=np.int64)
        if k + k2 > self.k_max:
            raise WindowError(f"product column {k + k2} exceeds window {self.k_max}")
        key = (r, k, k2, l + l2)
        if key not in self._pairings:
            self._pairings[key] = self._pairings_into(r, k, k2, l + l2)
        return self._pairings[key][l]

    def _pairings_into(self, r: int, k: int, k2: int, row: int) -> dict[int, np.ndarray]:
        """The pairings of columns k and k2 into (k+k2, row), for every split
        of the row, from one projection of all their product cochains."""
        page = self.pages[r]
        splits = [
            (l, page.dim(k, l), page.dim(k2, row - l))
            for l in range(max(0, row - self.n), min(row, self.n) + 1)
        ]
        # the leading staircase components of the basis classes, multiplied
        cups = [
            self.dc.product(k, l, page.cell(k, l).lifts[i][k],
                            k2, row - l, page.cell(k2, row - l).lifts[j][k2])
            for l, da, db in splits for i in range(da) for j in range(db)
        ]
        coords = self.project_many(r, k + k2, row, np.stack(cups, axis=1))[0]
        out, start = {}, 0
        for l, da, db in splits:
            out[l] = coords[start : start + da * db].reshape(da, db)
            start += da * db
        return out

    # -- invariants -------------------------------------------------------------
    def _consistency_checks(self):
        # d_r o d_r = 0 and kernel/image dimension bookkeeping
        for r in range(1, self.r_max + 1):
            page = self.pages[r]
            for (k, l), cell in page.cells.items():
                nxt = page.cell(k + r, l - r + 1)
                if cell.d_matrix is None or nxt is None or nxt.d_matrix is None:
                    continue
                if cell.d_matrix.rows and nxt.d_matrix.rows:
                    assert (nxt.d_matrix @ cell.d_matrix).is_zero(), "d o d != 0"
        for r in range(2, self.r_max + 1):
            page, prev = self.pages[r], self.pages[r - 1]
            for (k, l), cell in page.cells.items():
                out = prev.cell(k, l).d_matrix
                out_rank = out.rank() if out is not None else 0
                in_rank = PrimeFieldMatrix(
                    self.dc.field, self._incoming_matrix(prev, k, l, prev.dim(k, l))
                ).rank()
                assert cell.dim == prev.dim(k, l) - out_rank - in_rank, "page dims inconsistent"
        # 2-periodicity of dims in the trusted region
        for r in range(1, self.r_max + 1):
            page = self.pages[r]
            for (k, l), cell in page.cells.items():
                if k >= r and k + 2 <= page.trusted_k and cell.trusted:
                    assert cell.dim == page.dim(k + 2, l), "dims are not 2-periodic"
        # E_2 against group cohomology of the module-algebra route
        if self.r_max >= 2:
            page = self.pages[2]
            for l in range(self.n + 1):
                module = self.H[l].module
                expected = [group_cohomology(module, k).dim for k in range(3)]
                for k in range(min(page.trusted_k, self.k_max) + 1):
                    want = expected[k] if k < 3 else expected[2 if k % 2 == 0 else 1]
                    assert page.dim(k, l) == want, (
                        f"E_2^({k},{l}) = {page.dim(k, l)} but group cohomology gives {want}"
                    )

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


def page_product(tower: PageTower, r: int, a: PageClass, b: PageClass) -> PageClass:
    """Product of two page-r classes, via total-complex representatives."""
    return tower.product(r, a, b)


def check_zero_row(tower: PageTower) -> bool:
    """True iff every differential into row 0 vanishes in the trusted region."""
    for r in range(2, tower.r_max + 1):
        page = tower.pages[r]
        for (k, l), cell in page.cells.items():
            if l == r - 1 and cell.d_matrix is not None and k + r <= page.trusted_k:
                if not cell.d_matrix.is_zero():
                    return False
    return True


def check_odd_page_vanishing(tower: PageTower) -> bool:
    """True iff d_r = 0 for odd r > 1 whenever the source column is >= n."""
    for r in range(3, tower.r_max + 1, 2):
        page = tower.pages[r]
        for (k, l), cell in page.cells.items():
            if k >= tower.n and cell.trusted and cell.d_matrix is not None:
                if not cell.d_matrix.is_zero():
                    return False
    return True
