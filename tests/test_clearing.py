"""Clearing against plain ranks: on random G-complexes, Betti numbers and
Swan total dims computed with clearing equal those from ranking every map
in full."""

import numpy as np
from hypothesis import given, settings

from complex_reference import simplices
from swanss.complexes import betti_numbers, cochain_complex, quotient_complex, validate_and_regularize
from swanss.linalg import rank_mod, sparse_rank
from swanss.swan import SwanDoubleComplex
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
    assert betti_numbers(R, 2) == _dense_betti(R, 2)


@settings(max_examples=100, deadline=None)
@given(orbit_closures())
def test_total_dims_equal_a_rank_at_every_degree(K):
    dc = SwanDoubleComplex(cochain_complex(validate_and_regularize(K)))
    assert dc.total_cohomology_dims() == _direct_total_dims(dc)


@settings(max_examples=40, deadline=None)
@given(orbit_closures())
def test_cleared_columns_come_back_empty(K):
    dc = SwanDoubleComplex(cochain_complex(validate_and_regularize(K)))
    cleared = set()
    for s in range(dc.n + 4):
        full = dc.total_differential_columns(s)
        columns = dc.total_differential_columns(s, cleared)
        assert columns == [{} if i in cleared else col for i, col in enumerate(full)]
        sparse_rank(columns, dc.p)
        cleared = {max(col) for col in columns if col}
