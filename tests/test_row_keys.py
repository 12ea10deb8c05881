"""The simplex keys of `complexes._row_keys`: one uint64 word while n^w <=
2^64 for rows of width w on n vertices, the row's big-endian bytes past
that bound.  Either kind must be injective and sort as the rows do, at the
bound and on both sides of it, and a complex whose dimensions use both
kinds must find its simplices and name its faults as before."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import complex_reference as ref
from swanss.complexes import (
    FaceClosureError,
    SimplicialGComplex,
    _row_keys,
    barycentric_subdivision,
    betti_numbers,
    fixed_subcomplex,
)

WORD = np.dtype(np.uint64)


def _dense_ranks(values) -> list[int]:
    """The rank of each value among the distinct values."""
    distinct = sorted(set(values))
    return [distinct.index(v) for v in values]


def _assert_keys_order_as_rows(rows: np.ndarray, n: int):
    keys = _row_keys(rows, n)
    assert (keys.dtype == WORD) == (n ** rows.shape[-1] <= 2**64)
    assert keys.shape == rows.shape[:-1]
    # equal keys exactly for equal rows, in the order of the rows
    ranks = np.unique(keys.reshape(-1), return_inverse=True)[1].reshape(-1).tolist()
    assert ranks == _dense_ranks([tuple(r) for r in rows.reshape(-1, rows.shape[-1]).tolist()])


@st.composite
def rows_and_vertex_counts(draw):
    """Rows of width w with entries in [0, n), n small or within 3 of the
    largest n with n^w <= 2^64 (for w > 1, where int64 rows reach it),
    repeats and the extreme entries included."""
    w = draw(st.integers(1, 9))
    bound = int(2 ** (64 / w))
    while bound ** w > 2**64:
        bound -= 1
    while (bound + 1) ** w <= 2**64:
        bound += 1
    near = st.integers(bound - 3, bound + 3) if bound < 2**62 else st.nothing()
    n = draw(st.one_of(st.integers(1, 70), near))
    entry = st.one_of(st.integers(0, n - 1), st.sampled_from([0, n - 1]))
    rows = draw(st.lists(st.lists(entry, min_size=w, max_size=w), min_size=1, max_size=24))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    return np.array(rows, dtype=np.int64), n


@settings(max_examples=300, deadline=None)
@given(rows_and_vertex_counts())
def test_keys_are_injective_and_sort_as_the_rows_do(drawn):
    rows, n = drawn
    _assert_keys_order_as_rows(rows, n)
    # a leading axis more, as the faces of a dimension are looked up
    _assert_keys_order_as_rows(rows.reshape(1, *rows.shape), n)


@pytest.mark.parametrize("n, w", [
    (2**32, 2), (2**16, 4), (2**8, 8), (2**4, 16), (2, 64), (3, 40),  # n^w <= 2^64: one word
    (2**32 + 1, 2), (2**16 + 1, 4), (2**8 + 1, 8), (17, 16), (3, 41),  # just above: bytes
])
def test_keys_at_the_word_bound(n, w):
    top, low = [n - 1] * w, [0] * w
    rows = np.array([top, low, [0] * (w - 1) + [n - 1], [n - 1] + [0] * (w - 1),
                     top[:-1] + [n - 2], [1] + [0] * (w - 1), [0] * (w - 1) + [1], top],
                    dtype=np.int64)
    _assert_keys_order_as_rows(rows, n)
    if n ** w == 2**64:  # the largest row takes the largest word
        assert _row_keys(rows[:1], n).tolist() == [2**64 - 1]


def test_a_complex_straddling_the_word_bound():
    # 70,000^3 < 2^64 < 70,000^4: vertices, edges and triangles are keyed by
    # words, tetrahedra by bytes (three each: vertex 65,536 is 0x010000)
    n = 70_000
    g = [v + 35_000 if v < 35_000 else v - 35_000 for v in range(n)]
    s = (0, 255, 65_535, 65_536)
    t = tuple(sorted(g[v] for v in s))
    K = SimplicialGComplex.from_maximal(2, n, g, [s, t])
    assert [k.dtype == WORD for k in K._keys] == [True, True, True, False]
    listed = K.to_json()["simplices"]
    assert K.to_json() == ref.as_json(2, n, g, listed[::-1])
    for d, top in ref.simplices(K).items():
        assert K._index_of(d, top).tolist() == list(range(K.f_vector()[d]))
    assert not K._find(3, np.array([[0, 255, 65_535, 65_537]]))[1].any()
    assert not K._find(2, np.array([[0, 255, 65_537]]))[1].any()
    assert fixed_subcomplex(K).to_json() == ref.fixed_subcomplex(K)
    assert barycentric_subdivision(K).to_json() == ref.barycentric_subdivision(K)
    assert betti_numbers(K) == [2, 0, 0, 0]

    with pytest.raises(FaceClosureError) as info:
        SimplicialGComplex(2, n, g, [f for f in listed if f != [0, 65_535, 65_536]])
    assert str(info.value) == "simplex [0, 255, 65535, 65536] lacks face [0, 65535, 65536]"
    with pytest.raises(ValueError) as info:
        SimplicialGComplex(2, n, g, [f for f in listed if f != list(t)])
    assert type(info.value) is ValueError
    assert str(info.value) == "generator does not map simplex (0, 255, 65535, 65536) to a simplex"
