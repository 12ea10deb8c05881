import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from swanss import linalg, pages
from swanss.complexes import SimplicialGComplex, cochain_complex
from swanss.errors import InvariantError
from swanss.gmodule import group_cohomology
from swanss.pages import PageTower, check_odd_page_vanishing, check_zero_row
from swanss.swan import SwanDoubleComplex, WindowError
from swanss.synthetic import load_synthetic_page
from swan_helpers import dense_delta


def test_point_single_row_degenerates():
    pt = SimplicialGComplex(3, 1, [0], [(0,)])
    tower = PageTower(SwanDoubleComplex(cochain_complex(pt)))
    page = tower.pages[2]
    for k in range(page.trusted_k + 1):
        assert page.dim(k, 0) == 1
    assert check_zero_row(tower)
    assert check_odd_page_vanishing(tower)


def test_free_circle_d2_isomorphisms(pipelines):
    tower = pipelines("circle-3").tower
    page2 = tower.pages[2]
    for k in range(page2.trusted_k):
        assert page2.dim(k, 0) == 1 and page2.dim(k, 1) == 1
        assert page2.d_rank(k, 1) == 1
    page3 = tower.pages[3]
    assert page3.dim(0, 0) == 1 and page3.dim(1, 0) == 1
    for k in range(2, page3.trusted_k + 1):
        assert page3.dim(k, 0) == 0 and page3.dim(k, 1) == 0
    assert not check_zero_row(tower)


def test_e2_cross_check_against_module_route(pipelines):
    for name in ("join-3-1-0", "suspension-3", "circle-5"):
        tower = pipelines(name).tower
        page = tower.pages[2]
        for l in range(tower.n + 1):
            module = tower.H[l].module
            for k in range(page.trusted_k + 1):
                expected = group_cohomology(module, k).dim
                assert page.dim(k, l) == expected


def test_convergence_to_total_dims(pipelines):
    for name in ("circle-3", "join-3-1-1", "join-3-1-0", "suspension-3"):
        pipe = pipelines(name)
        tower = pipe.tower
        tot = pipe.D.total_cohomology_dims()
        last = tower.pages[tower.r_max]
        for s in range(min(last.trusted_k, len(tot) - 1) + 1):
            assert tower.antidiagonal_sum(tower.r_max, s) == tot[s], (name, s)


def test_semifree_join_collapses(pipelines):
    tower = pipelines("join-5-1-0").tower
    for r in range(2, tower.r_max + 1):
        page = tower.pages[r]
        for (k, l), cell in page.cells.items():
            if k <= page.trusted_k and cell.d_matrix is not None:
                assert not cell.d_matrix.any()
    assert check_zero_row(tower)
    assert check_odd_page_vanishing(tower)


def windowed_euler(tower, r: int) -> Fraction:
    """Average alternating sum over one column period, from trusted cells."""
    page = tower.pages[r]
    k_even = page.trusted_k - (page.trusted_k % 2)
    k_odd = k_even - 1
    even = sum((-1) ** l * page.dim(k_even, l) for l in range(tower.n + 1))
    odd = sum((-1) ** l * page.dim(k_odd, l) for l in range(tower.n + 1))
    return Fraction(even - odd, 2)


def test_windowed_euler_constant_across_pages(pipelines):
    for name in ("circle-3", "join-3-1-1", "suspension-3", "join-3-1-0"):
        tower = pipelines(name).tower
        values = {r: windowed_euler(tower, r) for r in range(2, tower.r_max + 1)}
        assert len(set(values.values())) == 1, (name, values)


def test_page_dims_two_periodic(pipelines):
    tower = pipelines("join-3-1-0").tower
    for r in range(1, tower.r_max + 1):
        page = tower.pages[r]
        for l in range(tower.n + 1):
            for k in range(r, page.trusted_k - 1):
                assert page.dim(k, l) == page.dim(k + 2, l)


def test_product_unit_class(pipelines):
    tower = pipelines("join-3-1-0").tower
    unit = tower.basis_class(2, 0, 0, 0)
    for (k, l) in [(3, 0), (4, 3), (5, 3)]:
        if tower.pages[2].dim(k, l):
            cls = tower.basis_class(2, k, l, 0)
            out = tower.product(2, unit, cls)
            assert np.array_equal(out.coords, cls.coords)


def test_product_odd_odd_vanishes_nice(pipelines):
    for name in ("join-5-1-0", "suspension-3"):
        tower = pipelines(name).tower
        page = tower.pages[2]
        n = tower.n
        for k in (1, 3, 5):
            for k2 in (1, 3):
                for l in range(n + 1):
                    for l2 in range(n + 1 - l):
                        if page.dim(k, l) and page.dim(k2, l2):
                            out = tower.product(
                                2,
                                tower.basis_class(2, k, l, 0),
                                tower.basis_class(2, k2, l2, 0),
                            )
                            assert out.is_zero(), (name, k, l, k2, l2)


def test_product_representative_independence(pipelines):
    # 100 random re-selections of representatives give the identical class
    tower = pipelines("join-3-1-0").tower
    p = tower.p
    rng = np.random.default_rng(101)
    page = tower.pages[2]
    cells = [(k, l) for (k, l), c in page.cells.items()
             if c.dim and k <= page.trusted_k and k >= 1]
    done = 0
    while done < 100:
        (k, l) = cells[int(rng.integers(0, len(cells)))]
        (k2, l2) = cells[int(rng.integers(0, len(cells)))]
        if k + k2 > tower.k_max or l + l2 > tower.n:
            continue
        a = tower.basis_class(2, k, l, 0)
        b = tower.basis_class(2, k2, l2, 0)
        canonical = tower.product(2, a, b)

        def perturbed_vector(cls):
            cell = tower.pages[2].source(cls.k, cls.l)
            vec = tower.leading_vector(cls)
            # add a coboundary
            if cls.l > 0:
                w = rng.integers(0, p, tower.dc.base.dims[cls.l - 1])
                vec = np.mod(vec + dense_delta(tower.dc.base, cls.l - 1) @ w, p)
            # add recorded page boundaries
            for gen_vec in cell.gens.T:
                vec = np.mod(vec + int(rng.integers(0, p)) * gen_vec, p)
            return vec

        va, vb = perturbed_vector(a), perturbed_vector(b)
        w = tower.dc.product(k, l, va, k2, l2, vb)
        coords = tower.project(2, k + k2, l + l2, w)
        assert np.array_equal(coords, canonical.coords)
        done += 1


def test_product_graded_commutative_and_derivation(pipelines):
    tower = pipelines("suspension-5").tower
    p, n = tower.p, tower.n
    page = tower.pages[2]
    rng = np.random.default_rng(55)
    cells = [(k, l) for (k, l), c in page.cells.items() if c.dim and k <= page.trusted_k]
    for _ in range(100):
        (k, l) = cells[int(rng.integers(0, len(cells)))]
        (k2, l2) = cells[int(rng.integers(0, len(cells)))]
        if k + k2 + 2 > tower.k_max or l + l2 > n:
            continue
        a = tower.basis_class(2, k, l, 0)
        b = tower.basis_class(2, k2, l2, 0)
        ab = tower.product(2, a, b)
        ba = tower.product(2, b, a)
        sgn = (-1) ** ((k + l) * (k2 + l2)) % p
        assert np.array_equal(ab.coords, sgn * ba.coords % p)


def test_project_outside_window_raises(pipelines):
    tower = pipelines("circle-3").tower
    with pytest.raises(WindowError):
        tower.project(2, tower.pages[1].k_reported + 5, 0,
                      np.zeros(tower.dc.base.dims[0], dtype=np.int64))


def test_r_max_bound():
    pt = SimplicialGComplex(3, 1, [0], [(0,)])
    dc = SwanDoubleComplex(cochain_complex(pt))
    with pytest.raises(ValueError):
        PageTower(dc, 5)  # n + 2 = 2 for a point
    for r_max in (1, 0, -1):
        with pytest.raises(ValueError, match="below 2"):
            PageTower(dc, r_max)


@pytest.mark.parametrize("name", ["circle-3", "join-3-1-0", "suspension-5"])
def test_served_columns_equal_computed_ones(pipelines, monkeypatch, name):
    # computing eight more columns of every page directly changes nothing
    tower = pipelines(name).tower
    start = pages.stable_start
    monkeypatch.setattr(pages, "stable_start", lambda r: start(r) + 8)
    wide = PageTower(tower.dc)
    for r in range(1, tower.r_max + 1):
        page, direct = tower.pages[r], wide.pages[r]
        if page.served is page:  # pages past convergence store no cell
            assert len(direct.cells) == len(page.cells) + 8 * (tower.n + 1)
        assert page.dims_json() == direct.dims_json()
        for k in range(page.trusted_k + 1):
            for l in range(tower.n + 1):
                assert np.array_equal(page.source(k, l).d_matrix, direct.source(k, l).d_matrix), (r, k, l)
                for i in range(page.dim(k, l)):
                    cls = tower.basis_class(r, k, l, i)
                    assert np.array_equal(tower.leading_vector(cls), wide.leading_vector(cls))
                if (k, l) not in direct.cells:
                    continue
                served, computed = page.source(k, l), direct.cells[(k, l)]
                assert np.array_equal(served.lifts, computed.lifts)


def _apply(matrix, x: np.ndarray, nrows: int) -> np.ndarray:
    """A `Csc` matrix times the columns of x, over the integers."""
    cols = np.repeat(np.arange(len(matrix.indptr) - 1), np.diff(matrix.indptr))
    out = np.zeros((nrows, x.shape[1]), dtype=np.int64)
    np.add.at(out, matrix.rows, matrix.values[:, None] * x[cols])
    return out


@pytest.mark.parametrize("name", ["certificates-3", "join-3-1-0", "suspension-5"])
def test_staircases_are_cocycles_through_their_columns(pipelines, name):
    # each staircase of a computed cell at (k, l) of page r, placed in
    # Tot^(k+l), has total differential zero in columns k..k+r-1
    tower = pipelines(name).tower
    dc, dim = tower.dc, tower.dc.base.dim

    def start(s, k):  # the first row of column k in Tot^s
        return sum(dim(s - c) for c in range(max(0, s - tower.n), k))

    checked = 0
    for r, page in tower.pages.items():
        for (k, l), cell in page.cells.items():
            s = k + l
            x = np.zeros((dc.tot_dim(s), cell.dim), dtype=np.int64)
            x[start(s, k) : start(s, k) + len(cell.lifts)] = cell.lifts
            dx = _apply(dc.total_differential(s), x, dc.tot_dim(s + 1)) % tower.p
            assert not dx[start(s + 1, k) : start(s + 1, k + r)].any(), (r, k, l)
            checked += cell.dim > 0
    assert checked


def test_period_checked_from_too_early_a_column_raises(pipelines, monkeypatch):
    # on the free circle, E_3 is nonzero in columns 0 and 1 only
    monkeypatch.setattr(pages, "stable_start", lambda r: 0)
    with pytest.raises(InvariantError, match="not 2-periodic"):
        PageTower(pipelines("circle-3").D)


_BREAK_PAGES = """
import sys
import numpy as np
from swanss.complexes import cochain_complex, validate_and_regularize
from swanss.corpus import build_circle
from swanss.errors import InvariantError
from swanss.pages import PageTower
from swanss.swan import SwanDoubleComplex
tower = PageTower(SwanDoubleComplex(cochain_complex(validate_and_regularize(build_circle(3)))))
if sys.argv[1] == "dd":
    # d_1 = 1 on H^0 in columns 0 and 1, so d_1 o d_1 = 1 at (0, 0)
    for k in (0, 1):
        tower.pages[1].cells[(k, 0)].d_matrix = np.ones((1, 1), dtype=np.int64)
elif sys.argv[1] == "e2":
    # the module route reports one trivial summand too many in every degree
    import swanss.pages
    from swanss.gmodule import Decomposition, decompose

    def one_more(module):
        dec = decompose(module)
        return Decomposition(dec.p, {**dec.multiplicities, 1: dec.count(1) + 1})
    swanss.pages.decompose = one_more
else:
    tower.pages[2].cells[(0, 0)].dim += 1
try:
    tower._consistency_checks()
except InvariantError as exc:
    print(exc.stage, exc.invariant)
"""
BROKEN_PAGES = {"dd": "pages d_1 o d_1 != 0 at (0,0)",
                "dim": "pages dim E_2^(0,0) != dim ker / im d_1",
                "e2": "pages E_2^(0,0) is 1, not H^0: 2"}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
@pytest.mark.parametrize("mode", sorted(BROKEN_PAGES))
def test_broken_page_raises_at_pages(mode, flags):
    src = os.path.dirname(os.path.dirname(os.path.abspath(pages.__file__)))
    proc = subprocess.run([sys.executable, *flags, "-c", _BREAK_PAGES, mode],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == BROKEN_PAGES[mode] + "\n", proc.stderr


def test_synthetic_page_loading():
    data = {
        "field_char": 0,
        "n": 1,
        "window": 8,
        "dims": {"0,0": 1, "2,0": 1, "0,1": 2},
        "differentials": {"2": {"0,1": [["1", "0"]]}},
        "products": {"(0,0)x(2,0)": [[["1"]]]},
    }
    term = load_synthetic_page(json.dumps(data))[2]
    assert term.dim(0, 1) == 2
    assert term.d_rank(0, 1) == 1
    assert term.pairing_matrix(0, 0, 2, 0) == [[1]]
    assert term.pairing_matrix(0, 1, 2, 0) is None  # no table for that pair


def test_synthetic_page_numbers_are_integers():
    data = {"field_char": 5, "n": 2, "window": 6, "dims": {"0,2": 1, "2,1": 1},
            "differentials": {"02": {"0,2": [[1]]}}}
    assert load_synthetic_page(json.dumps(data))[2].d_rank(0, 2) == 1
    data["differentials"]["2"] = {}
    with pytest.raises(ValueError, match="repeated page number"):
        load_synthetic_page(json.dumps(data))


def test_synthetic_rejects_bad_field():
    with pytest.raises(ValueError):
        load_synthetic_page(json.dumps({"field_char": 6, "n": 1, "window": 4}))


@pytest.mark.parametrize("name", ["join-3-1-0", "suspension-3"])
def test_pairing_matrices_equal_products_of_basis_classes(pipelines, name):
    # pairings are cached by the columns that serve them; every entry must
    # still be the product of the two basis classes at the asked columns
    tower = pipelines(name).tower
    n = tower.n
    for r in (2, 3):
        for k in range(9):
            for k2 in range(9):
                for l in range(n + 1):
                    mat = tower.pairing_matrix(r, k, l, k2, n - l)
                    if mat is None:
                        continue
                    direct = [
                        [int(tower.product(r, tower.basis_class(r, k, l, i),
                                           tower.basis_class(r, k2, n - l, j)).coords[0])
                         for j in range(mat.shape[1])]
                        for i in range(mat.shape[0])
                    ]
                    assert mat.tolist() == direct, (r, k, l, k2)


def test_cohomology_makes_no_dense_elimination_and_builds_no_dense_delta(pipelines, monkeypatch):
    # the cohomology reduces the face tables sparsely, one reduction per degree
    C = cochain_complex(pipelines("join-5-1-0").R)
    eliminated = []  # (rows, pivot columns) of every dense elimination
    eliminate = linalg._eliminate

    def counted(r, p, ncols):
        eliminated.append((r.shape[0], ncols))
        return eliminate(r, p, ncols)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    tracemalloc.start()
    try:
        C.cohomology()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not eliminated
    # everything the cohomology holds at once is smaller than one dense delta
    assert peak < 8 * max(C.dims[l] * C.dims[l + 1] for l in range(C.top_degree))
    # the page tower eliminates page-sized matrices only
    eliminated.clear()
    PageTower(SwanDoubleComplex(C))
    rows = [r for r, _ in eliminated]
    assert rows and max(rows) < min(C.dims)
