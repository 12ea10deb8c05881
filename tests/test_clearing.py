"""Clearing against plain ranks: on random G-complexes, Betti numbers and
Swan total dims computed with clearing equal those from ranking every map
in full, and the cleared columns of each Swan map reduce to zero in its
full reduction."""

import numpy as np
from hypothesis import given, settings

from complex_reference import simplices
from swanss.complexes import (
    SimplicialGComplex,
    betti_numbers,
    cochain_complex,
    quotient_complex,
    validate_and_regularize,
)
from swanss.linalg import rank_mod, sparse_rank
from swanss.swan import SwanDoubleComplex
from sparse_reference import dense_of
from swan_helpers import cell_dim, dense_delta, dense_h, tot_dim, total_differential
from test_quotient import orbit_closures
from test_swan import _direct_total_dims


def _dense_betti(K, p):
    """F_p Betti numbers from a dense rank of every boundary matrix."""
    S = simplices(K)
    ranks = [0] * (K.dim + 2)
    for d in range(1, K.dim + 1):
        boundary = np.zeros((len(S[d - 1]), len(S[d])), dtype=np.int64)
        index = {s: i for i, s in enumerate(S[d - 1])}
        for j, s in enumerate(S[d]):
            for i in range(len(s)):
                boundary[index[s[:i] + s[i + 1 :]], j] = (-1) ** i
        ranks[d] = rank_mod(boundary, p)
    return [len(S[d]) - ranks[d] - ranks[d + 1] for d in range(K.dim + 1)]


@settings(max_examples=150, deadline=None)
@given(orbit_closures())
def test_betti_numbers_equal_dense_ranks(K):
    R = validate_and_regularize(K)
    for X in (K, R, quotient_complex(R)):
        assert betti_numbers(X) == _dense_betti(X, K.p)
    # the same simplices over F_2, under the trivial action
    R2 = SimplicialGComplex(2, R.vertex_count, range(R.vertex_count), R.rows)
    assert betti_numbers(R2) == _dense_betti(R, 2)


@settings(max_examples=100, deadline=None)
@given(orbit_closures())
def test_total_dims_equal_a_rank_at_every_degree(K):
    dc = SwanDoubleComplex(cochain_complex(validate_and_regularize(K)))
    assert dc.total_cohomology_dims() == _direct_total_dims(dc)


def _dense_total_differential(dc, s):
    """d: Tot^s -> Tot^(s+1) assembled from the dense (-1)^k delta_l and d_h."""
    sources, targets = dc._tot_blocks(s), dc._tot_blocks(s + 1)
    col_at = np.cumsum([0] + [cell_dim(dc, *b) for b in sources])
    row_at = dict(zip(targets, np.cumsum([0] + [cell_dim(dc, *b) for b in targets])))
    out = np.zeros((tot_dim(dc, s + 1), tot_dim(dc, s)), dtype=np.int64)
    for (k, l), c0, c1 in zip(sources, col_at, col_at[1:]):
        if (k, l + 1) in row_at:
            r0 = row_at[(k, l + 1)]
            out[r0 : r0 + cell_dim(dc, k, l + 1), c0:c1] = (-1) ** k * dense_delta(dc.base, l) % dc.p
        r0 = row_at[(k + 1, l)]
        out[r0 : r0 + cell_dim(dc, k + 1, l), c0:c1] = dense_h(dc, k, l)
    return out


@settings(max_examples=40, deadline=None)
@given(orbit_closures())
def test_cleared_columns_come_back_empty(K):
    # the columns of d_s at the pivot rows of the reduced d_(s-1) reduce to
    # zero when d_s is reduced in full, so clearing them keeps every pivot
    dc = SwanDoubleComplex(cochain_complex(validate_and_regularize(K)))
    cleared = np.zeros(0, dtype=np.intp)
    for s in range(dc.n + 4):
        matrix = total_differential(dc, s)
        dense = dense_of(matrix, tot_dim(dc, s + 1))
        assert np.array_equal(dense, _dense_total_differential(dc, s))
        full = sparse_rank(matrix, dc.p, record=True)
        assert set(cleared.tolist()) <= {max(op) for op in full.kernel}
        red = sparse_rank(matrix, dc.p, cleared)
        assert red.rank == full.rank == rank_mod(dense, dc.p)
        rows = sorted(full.pivot_rows.tolist())
        assert sorted(red.pivot_rows.tolist()) == rows
        assert [red.pivot(i)[0] for i in rows] == [full.pivot(i)[0] for i in rows]
        cleared = red.pivot_rows
