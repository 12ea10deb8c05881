"""`linalg.sparse_rank`, with its apparent pivots and its lazily built dict
columns, against the plain left-to-right reduction of `sparse_reference`:
on every map the program reduces (the boundaries from the top down, the
coboundaries from degree 0 up) and on the Swan d_s for s = 0..n+3 that
the tests rank as a reference, with and without clearing, it gives the
same rank, pivot rows, R columns and V columns."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings

from sparse_reference import csc_of, reference_reduction
from swanss import linalg
from swanss.complexes import _boundary, cochain_complex, validate_and_regularize
from swanss.linalg import sparse_rank
from swanss.swan import SwanDoubleComplex
from swan_helpers import total_differential
from test_quotient import orbit_closures


def _assert_same(matrix, p, cleared, record):
    red = sparse_rank(matrix, p, cleared, record)
    pivots, kernel = reference_reduction(matrix, p, () if cleared is None else cleared, record)
    assert red.rank == len(pivots)
    assert sorted(red.pivot_rows.tolist()) == sorted(pivots)
    assert red.kernel == kernel
    assert {row: red.pivot(row) for row in pivots} == pivots
    return red


def _assert_chain(maps, p, record):
    """Each map of `maps` in turn, as it is and cleared by the pivot rows of
    the map before; returns (apparent, other) pivot counts of the cleared
    reductions of the maps with entries."""
    kinds, cleared = [], None
    for matrix in maps:
        _assert_same(matrix, p, None, record)
        red = _assert_same(matrix, p, cleared, record)
        cleared = red.pivot_rows
        if len(matrix.rows):
            kinds.append((len(red._apparent), red.rank - len(red._apparent)))
    return kinds


def _maps(R):
    """The maps the program reduces for the regularized complex R, and the
    Swan total differentials the tests reduce."""
    C = cochain_complex(R)
    dc = SwanDoubleComplex(C)
    return {
        "boundaries": [_boundary(R, d, R.p) for d in range(R.dim, -1, -1)],
        "coboundaries": [C._coboundary(l) for l in range(C.top_degree + 1)],
        "swan": [total_differential(dc, s) for s in range(dc.n + 4)],
    }


@settings(max_examples=40, deadline=None)
@given(orbit_closures())
def test_every_map_reduces_as_the_plain_reduction(K):
    R = validate_and_regularize(K)
    for maps in _maps(R).values():
        for record in (False, True):
            _assert_chain(maps, R.p, record)


@pytest.mark.parametrize("name", ["join-3-1-0", "join-5-1-0"])
def test_apparent_and_other_pivots_in_every_degree(pipelines, name):
    R = pipelines(name).R
    for kind, maps in _maps(R).items():
        kinds = _assert_chain(maps, R.p, record=kind != "swan")
        # every map with entries has pivots of both kinds
        assert all(apparent and other for apparent, other in kinds), (kind, kinds)


def test_apparent_pivots_are_built_only_when_used():
    # columns 0, 1 and 3 are apparent (rows 1, 2, 3); column 2 ends at row
    # 2 like column 1 and reduces against it, then against column 0
    a = np.array([[1, 0, 1, 0],
                  [1, 1, 0, 0],
                  [0, 1, 1, 1],
                  [0, 0, 0, 1]])
    matrix = csc_of(a, 2)
    red = sparse_rank(matrix, 2, record=True)
    assert red._apparent == {1: 0, 2: 1, 3: 3}
    assert red.rank == 3 and sorted(red.pivot_rows.tolist()) == [1, 2, 3]
    assert red.kernel == [{0: 1, 1: 1, 2: 1}]
    assert sorted(red._built) == [1, 2]  # column 3 was never reduced against
    assert red.pivot(3) == ({2: 1, 3: 1}, {3: 1})
    assert red.pivot(0) is None
    pivots, kernel = reference_reduction(matrix, 2, record=True)
    assert {row: red.pivot(row) for row in pivots} == pivots and kernel == red.kernel
    # column 2, a combination of the columns before it, cleared
    red = sparse_rank(matrix, 2, np.array([2]), record=True)
    assert red._apparent == {1: 0, 2: 1, 3: 3} and red.kernel == [] and not red._built


def test_the_working_column_heap_keeps_stale_and_repeated_rows(monkeypatch):
    # over F_3, columns 0, 1 and 3 are apparent (rows 3, 2, 1).  Column 2
    # loses row 0 against column 0 and gets it back against column 1, so
    # the heap holds row 0 twice, and becomes the pivot at row 0; column 4
    # loses and regains row 0 the same way, then reduces to zero
    a = np.array([[1, 1, 1, 1, 1],
                  [0, 0, 0, 1, 1],
                  [0, 1, 1, 0, 1],
                  [1, 0, 1, 0, 1]])
    matrix = csc_of(a, 3)
    pushed = []

    def push(heap, item):
        pushed.append(-item)
        heapq.heappush(heap, item)

    monkeypatch.setattr(linalg, "heappush", push)
    for record in (False, True):
        pushed.clear()
        red = _assert_same(matrix, 3, None, record)
        assert pushed == [0, 0]  # each time into a heap that still held row 0
        assert sorted(red.pivot_rows.tolist()) == [0, 1, 2, 3]
    assert red.pivot(0) == ({0: 2}, {0: 2, 1: 2, 2: 1})
    assert red.kernel == [{0: 1, 1: 1, 2: 1, 3: 2, 4: 1}]
