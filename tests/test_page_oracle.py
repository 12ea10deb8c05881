"""Every page's dims and d_r ranks against one filtered reduction of the
total complex, and their period.

Order the rows and columns of each d_s: Tot^s -> Tot^(s+1) by decreasing
column k, so that F^k Tot, the columns >= k, comes first.  The plain
left-to-right reduction (`sparse_reference.reference_reduction`) pairs the
column of Tot^s that kills a basis element of Tot^(s+1) with that element,
its pivot row.  A pair from column a to column b is a d_(b-a), so
dim E_r^(k,l) is the number of basis elements of Tot^(k+l) in column k
that are unpaired or paired at a distance >= r, and rank d_r out of (k, l)
is the number of pairs at distance exactly r that start at (k, l)
(S. Basu and L. Parida, "Spectral sequences, exact couples and persistent
homology of filtrations", Expo. Math. 2017).  The counts share no code
with the tower: no cohomology basis, subquotient or staircase."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from swanss.complexes import cochain_complex, validate_and_regularize
from swanss.pages import PageTower
from swanss.swan import SwanDoubleComplex
from sparse_reference import csc_of, dense_of, reference_reduction
from test_quotient import orbit_closures
from test_report_digests import REPORTS


def _columns(dc: SwanDoubleComplex, s: int) -> np.ndarray:
    """The column k of each basis element of Tot^s, by decreasing k."""
    blocks = dc._tot_blocks(s)
    return np.repeat([k for k, _ in blocks], [dc.cell_dim(k, l) for k, l in blocks])[::-1]


def _filtered_pairs(dc: SwanDoubleComplex, s: int) -> list[tuple[int, int]]:
    """The (column, pivot row) pairs of d_s, its rows and columns ordered by
    decreasing k: `total_differential` lists them by increasing k, so both
    orders are reversed (within a column too, which keeps the fill-in low)."""
    dense = dense_of(dc.total_differential(s), dc.tot_dim(s + 1))[::-1, ::-1]
    pivots, _ = reference_reduction(csc_of(dense, dc.p), dc.p, record=True)
    # V is unitriangular: a pivot's column is the last index of its V column
    return [(max(op), row) for row, (_, op) in pivots.items()]


def _filtered_counts(dc: SwanDoubleComplex, top: int, r_max: int):
    """dim E_r^(k,l) and rank d_r out of (k, l) for r = 1..r_max and
    k + l <= top, from the filtered reductions of d_0, ..., d_top."""
    dims, ranks = Counter(), Counter()
    distance = {}  # (s, index in Tot^s) -> distance of its pair
    for s in range(top + 1):
        col_k, row_k = _columns(dc, s), _columns(dc, s + 1)
        for j, i in _filtered_pairs(dc, s):
            r = row_k[i] - col_k[j]
            distance[(s, j)] = distance[(s + 1, i)] = r
            ranks[(r, col_k[j], s - col_k[j])] += 1
    for s in range(top + 1):
        for j, k in enumerate(_columns(dc, s)):
            for r in range(1, r_max + 1):
                if distance.get((s, j), r) >= r:
                    dims[(r, k, s - k)] += 1
    return dims, ranks


def _assert_pages_match_the_reduction(tower: PageTower):
    n, r_max = tower.n, tower.r_max
    last = max(k for r in range(1, r_max + 1) for k, _ in tower.pages[r].served.cells)
    dims, ranks = _filtered_counts(tower.dc, last + n, r_max)
    for r in range(1, r_max + 1):
        page = tower.pages[r]
        for k, l in page.served.cells:
            assert page.dim(k, l) == dims[(r, k, l)], (r, k, l)
            assert page.d_rank(k, l) == ranks[(r, k, l)], (r, k, l)
        # the period of every page from total degree n + 1 (`pages` docstring)
        for k in range(last - 1):
            for l in range(max(0, n + 1 - k), n + 1):
                assert dims[(r, k, l)] == dims[(r, k + 2, l)], (r, k, l)
                assert ranks[(r, k, l)] == ranks[(r, k + 2, l)], (r, k, l)


def _tower(K, k_max=None, r_max=None) -> PageTower:
    return PageTower(SwanDoubleComplex(cochain_complex(validate_and_regularize(K)), k_max), r_max)


@settings(max_examples=25, deadline=None)
@given(orbit_closures())
def test_pages_match_the_filtered_reduction(K):
    _assert_pages_match_the_reduction(_tower(K))


# the pinned report inputs but the joins at p = 5: the plain reduction of
# their total complex takes 2-30 s each on a 2-core VM
@pytest.mark.parametrize("name", sorted(set(REPORTS) - {"join-5-1-0", "join-5-1-1"}))
def test_pages_match_the_filtered_reduction_on_pinned_inputs(name):
    build, k_max, r_max, _ = REPORTS[name]
    _assert_pages_match_the_reduction(_tower(build(), k_max, r_max))
