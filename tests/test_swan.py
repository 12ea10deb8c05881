import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from swanss import complexes, swan
from swanss.complexes import (
    SimplicialGComplex,
    betti_numbers,
    cochain_complex,
    fixed_subcomplex,
    quotient_complex,
    validate_and_regularize,
)
from swanss.errors import InvariantError
from swanss.linalg import sparse_rank
from swanss.corpus import build_circle, build_suspension_sphere
from swanss.swan import SwanDoubleComplex, WindowError
from complex_reference import simplices
from sparse_reference import dense_of
from swan_helpers import (
    column_block,
    dense_delta,
    dense_h,
    tot_differential,
    tot_dim,
    tot_product,
    total_differential,
)


def test_window_too_small():
    pt = SimplicialGComplex(3, 1, [0], [(0,)])
    C = cochain_complex(pt)
    with pytest.raises(WindowError):
        SwanDoubleComplex(C, 10)


def test_point_total_dims_all_one():
    pt = SimplicialGComplex(3, 1, [0], [(0,)])
    dc = SwanDoubleComplex(cochain_complex(pt), 20)
    dims = dc.total_cohomology_dims()
    assert dims == [1] * len(dims)
    assert len(dims) == 20 - 2 + 1


def test_point_p5_total_dims():
    pt = SimplicialGComplex(5, 1, [0], [(0,)])
    dims = SwanDoubleComplex(cochain_complex(pt)).total_cohomology_dims()
    assert dims == [1] * len(dims)


def test_free_circle_matches_quotient(pipelines):
    for name in ("circle-3", "circle-5", "circle-2"):
        pipe = pipelines(name)
        dims = pipe.D.total_cohomology_dims()
        qb = betti_numbers(quotient_complex(pipe.R))
        expected = (qb + [0] * len(dims))[: len(dims)]
        assert dims == expected


def test_trivial_circle_kunneth(pipelines):
    pipe = pipelines("circle-trivial-3")
    dims = pipe.D.total_cohomology_dims()
    assert dims == [1] + [2] * (len(dims) - 1)


def test_free_join_is_lens_space(pipelines):
    pipe = pipelines("join-3-1-1")
    dims = pipe.D.total_cohomology_dims()
    assert dims[:5] == [1, 1, 1, 1, 0]
    assert all(d == 0 for d in dims[4:])


def test_semifree_join_localization(pipelines):
    pipe = pipelines("join-5-1-0")
    dims = pipe.D.total_cohomology_dims()
    assert dims == [1, 1, 1] + [2] * (len(dims) - 3)
    # localization: the same dims as the fixed circle with trivial action
    FX = fixed_subcomplex(pipe.R)
    fx_dims = SwanDoubleComplex(cochain_complex(FX)).total_cohomology_dims()
    upto = min(len(dims), len(fx_dims))
    assert dims[4:upto] == fx_dims[4:upto]


def test_column_periodicity(pipelines):
    dc = pipelines("circle-3").D
    for l in range(dc.n + 1):
        for k, later in ((0, 2), (1, 17)):
            assert all(map(np.array_equal, column_block(dc, k, l), column_block(dc, later, l)))


TRANSFER_PIPELINES = ["circle-3", "circle-trivial-3", "join-3-1-1", "join-3-1-0",
                      "suspension-3", "certificates-3", "page-three-3"]


@pytest.mark.parametrize("name", TRANSFER_PIPELINES)
def test_transfer_j0_block_is_the_towers_d1(pipelines, name):
    # the first block of D out of (k, l) is p(t reps_l): t reps_l is a
    # cocycle, so w = 0, and p reads its coordinates, as page 1 does
    pipe = pipelines(name)
    dc, page = pipe.D, pipe.tower.pages[1]
    for l in range(dc.n + 1):
        for k in (0, 1, 2, 3):
            assert np.array_equal(dc._transfer_blocks(k, l)[0], page.cells[(k, l)].d_matrix)


@pytest.mark.parametrize("name", TRANSFER_PIPELINES)
def test_transfer_blocks_repeat_with_period_two(pipelines, name):
    # each block computed afresh, so no cache keyed by parity can hide a k
    C = pipelines(name).C
    for l in range(C.top_degree + 1):
        for k in (0, 1, 2, 3):
            blocks = SwanDoubleComplex(C)._transfer_blocks(k, l)
            later = SwanDoubleComplex(C)._transfer_blocks(k + 2, l)
            assert len(blocks) == len(later) == l + 1
            assert all(map(np.array_equal, blocks, later))


def _suspended_circle(p):
    """The suspension of the free circle: the action is semifree, the poles are fixed."""
    circle = build_circle(p)
    m = circle.vertex_count
    tri = [e + (pole,) for e in simplices(circle)[1] for pole in (m, m + 1)]
    return SimplicialGComplex.from_maximal(p, m + 2, list(circle.generator) + [m, m + 1], tri)


def _dense_block(dc, k, l):
    """The column block (k, l) of d, dense: the rows of d_v, then of d_h."""
    block = column_block(dc, k, l)
    assert np.all((0 < block.values) & (block.values < dc.p))
    return dense_of(block, dc.base.dim(l + 1) + dc.base.dim(l))


def _assert_h_matches_dense_reference(dc):
    for l in range(dc.n + 1):
        for parity in (0, 1):
            ref = dense_h(dc, parity, l)
            assert np.array_equal(_dense_block(dc, parity, l)[dc.base.dim(l + 1):], ref)
            eye = np.eye(dc.base.dim(l), dtype=np.int64)
            assert np.array_equal(dc.apply_h(parity, l, eye), ref)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("build", [build_circle, _suspended_circle], ids=["free", "semifree"])
def test_h_columns_equal_the_dense_reference(p, build):
    K = validate_and_regularize(build(p))
    _assert_h_matches_dense_reference(SwanDoubleComplex(cochain_complex(K)))


def _dense_delta_reference(K, l, p):
    """delta_l by the per-simplex loop: (-1)^j at the face that drops s[j]."""
    S = simplices(K)
    rows = len(S[l + 1]) if l < K.dim else 0
    m = np.zeros((rows, len(S[l])), dtype=np.int64)
    index = {s: i for i, s in enumerate(S[l])}
    for i, s in enumerate(S[l + 1] if rows else ()):
        for j in range(len(s)):
            m[i, index[s[:j] + s[j + 1 :]]] += (-1) ** j
    return np.mod(m, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("build", [build_circle, _suspended_circle], ids=["free", "semifree"])
def test_v_columns_equal_the_dense_reference(p, build):
    K = validate_and_regularize(build(p))
    dc = SwanDoubleComplex(cochain_complex(K))
    for l in range(dc.n + 1):
        ref = _dense_delta_reference(K, l, p)
        assert np.array_equal(dense_delta(dc.base, l), ref)
        assert np.array_equal(dense_of(dc.base._coboundary(l), ref.shape[0]), ref)
        for k in (0, 3):
            top = _dense_block(dc, k, l)[: ref.shape[0]]
            assert np.array_equal(top, (-1) ** k * ref % p)


def test_product_unit_law(pipelines):
    dc = pipelines("join-3-1-1").D
    C = dc.base
    one = np.ones(C.dims[0], dtype=np.int64)
    rng = np.random.default_rng(8)
    for k2 in (0, 1, 4, 7):
        beta = rng.integers(0, 3, C.dims[2])
        assert np.array_equal(dc.product(0, 0, one, k2, 2, beta), beta % 3)


def test_product_odd_odd_point_vanishes():
    # on the point with p = 3, the odd-odd product is (3 choose 2) = 3 = 0
    pt = SimplicialGComplex(3, 1, [0], [(0,)])
    dc = SwanDoubleComplex(cochain_complex(pt))
    a = np.array([1], dtype=np.int64)
    assert not np.any(dc.product(1, 0, a, 1, 0, a))
    assert not np.any(dc.product(3, 0, a, 5, 0, a))


def test_product_window_overflow():
    pt = SimplicialGComplex(3, 1, [0], [(0,)])
    dc = SwanDoubleComplex(cochain_complex(pt), 16)
    a = np.array([1], dtype=np.int64)
    with pytest.raises(WindowError):
        dc.product(10, 0, a, 10, 0, a)


def test_total_leibniz_random(pipelines):
    for name in ("circle-3", "join-3-1-0", "suspension-3"):
        dc = pipelines(name).D
        C = dc.base
        p = dc.p
        rng = np.random.default_rng(99)
        for _ in range(200):
            k, k2 = int(rng.integers(0, 7)), int(rng.integers(0, 7))
            l = int(rng.integers(0, C.top_degree + 1))
            l2 = int(rng.integers(0, C.top_degree + 1))
            x = {(k, l): rng.integers(0, p, C.dims[l])}
            y = {(k2, l2): rng.integers(0, p, C.dims[l2])}
            lhs = tot_differential(dc, tot_product(dc, x, y))
            rhs = tot_product(dc, tot_differential(dc, x), y)
            sgn = (-1) ** (k + l) % p
            for pos, vec in tot_product(dc, x, tot_differential(dc, y)).items():
                cur = rhs.get(pos)
                acc = np.mod((cur if cur is not None else 0) + sgn * vec, p)
                if np.any(acc):
                    rhs[pos] = acc
                elif pos in rhs:
                    del rhs[pos]
            assert set(lhs) == set(rhs)
            for pos in lhs:
                assert np.array_equal(lhs[pos], rhs[pos])


def test_d_squared_zero_on_random_elements(pipelines):
    dc = pipelines("join-3-1-1").D
    rng = np.random.default_rng(13)
    for _ in range(30):
        k = int(rng.integers(0, 8))
        l = int(rng.integers(0, 4))
        x = {(k, l): rng.integers(0, 3, dc.base.dims[l])}
        assert tot_differential(dc, tot_differential(dc, x)) == {}


def test_trusted_limit():
    pt = SimplicialGComplex(3, 1, [0], [(0,)])
    dc = SwanDoubleComplex(cochain_complex(pt), 20)
    assert dc.trusted_total_limit == 18
    assert len(dc.total_cohomology_dims()) == 19


def _direct_total_dims(dc):
    """dim H^s from a sparse rank of d at every degree of the reported window."""
    limit = dc.trusted_total_limit
    ranks = [sparse_rank(total_differential(dc, s), dc.p).rank for s in range(limit + 1)]
    return [tot_dim(dc, s) - (ranks[s - 1] if s else 0) - ranks[s] for s in range(limit + 1)]


@pytest.mark.parametrize(
    "name", ["circle-3", "circle-2", "circle-trivial-3", "join-3-1-0", "join-3-1-1", "suspension-3"]
)
def test_total_dims_equal_a_rank_at_every_degree(pipelines, name):
    dc = pipelines(name).D
    assert dc.total_cohomology_dims() == _direct_total_dims(dc)


def test_total_dims_of_an_odd_window():
    pt = SimplicialGComplex(5, 1, [0], [(0,)])
    dc = SwanDoubleComplex(cochain_complex(pt), 21)
    assert dc.total_cohomology_dims() == _direct_total_dims(dc)


@pytest.mark.parametrize("p, top", [(3, 0), (5, 0), (5, 1)])
def test_total_dims_when_ranks_alternate(p, top):
    # on a free orbit of points, and on the 1-skeleton of the 4-simplex
    # rotated by Z/5, the rank of d differs between even and odd degrees
    rotate = [(v + 1) % p for v in range(p)]
    simplices = [s for size in range(1, top + 2) for s in itertools.combinations(range(p), size)]
    K = validate_and_regularize(SimplicialGComplex(p, p, rotate, simplices))
    dc = SwanDoubleComplex(cochain_complex(K))
    ranks = [sparse_rank(total_differential(dc, s), p).rank for s in (dc.n, dc.n + 1)]
    assert ranks[0] != ranks[1]
    assert dc.total_cohomology_dims() == _direct_total_dims(dc)


def _under_optimization(script):
    """The standard output of `script` run by `python -O` on this checkout's swanss."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(swan.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    return proc.stdout or proc.stderr


_BREAK_TRANSFER = """
from swanss import swan
from swanss.complexes import cochain_complex, validate_and_regularize
from swanss.errors import InvariantError
from swan_helpers import certificate_complex

# d_h = T - 1 in every column: (T - 1)^2 != 0 on H^1 = V_3, so D o D != 0
apply_h = swan.SwanDoubleComplex.apply_h
swan.SwanDoubleComplex.apply_h = lambda dc, k, l, vectors: apply_h(dc, 0, l, vectors)
C = cochain_complex(validate_and_regularize(certificate_complex()))
try:
    swan.SwanDoubleComplex(C).total_cohomology_dims()
except InvariantError as exc:
    print(exc)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_transferred_differential_squaring_to_nonzero_raises(flags):
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    proc = subprocess.run([sys.executable, *flags, "-c", _BREAK_TRANSFER], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])))
    assert proc.stdout == "swan.tot_dims: D o D != 0 out of degree 1\n", proc.stderr


# Faults in the action are injected through `_image`, g's permutation of the
# simplices of each dimension, from which the cochain complex reads T.
def _rotated_triangle():
    """The regularized triangle, a hexagon: vertices 0, 1, 2 and the
    barycenters 3, 4, 5 of the edges {0,1}, {0,2}, {1,2}, g rotating both
    triples."""
    R = validate_and_regularize(build_circle(3))
    assert R.is_regular() and R.is_order_compatible()
    return R


def test_action_not_commuting_with_delta_raises(monkeypatch):
    # T is the identity on edges but rotates the vertices, so T delta != delta T
    # while t^p = 1 still holds; edges fixed setwise, not pointwise, are not regular
    R = _rotated_triangle()
    R._image[1] = np.arange(len(R.rows[1]))
    monkeypatch.setattr(SimplicialGComplex, "is_regular", lambda self: True)
    with pytest.raises(InvariantError) as info:
        cochain_complex(R)
    assert info.value.stage == "complexes.cochain"
    assert "commute" in info.value.invariant


def test_action_of_order_not_dividing_p_raises():
    # the reflection of the hexagon that swaps vertices 1 and 2, so 3 and 4,
    # with the matching edges: a simplicial automorphism, so it commutes with
    # delta, but of order 2, so t^3 = t != 1
    R = _rotated_triangle()
    R._image[0] = np.array([0, 2, 1, 4, 3, 5])
    R._image[1] = R._index_of(1, np.sort(R._image[0][R.rows[1]], axis=1))
    assert R.is_regular()
    with pytest.raises(InvariantError) as info:
        cochain_complex(R)
    assert info.value.stage == "complexes.cochain"
    assert "t^p != 1" in info.value.invariant


def test_delta_squared_nonzero_raises(monkeypatch):
    # with every face sign +1 each codimension-2 face is reached twice with
    # sign +1, 2 != 0 mod 3, while T delta = delta T and t^p = 1 still hold
    R = validate_and_regularize(build_suspension_sphere(3))
    assert R.dim == 2
    monkeypatch.setattr(complexes, "_face_signs", lambda d: np.ones(d + 1, dtype=np.int64))
    with pytest.raises(InvariantError) as info:
        cochain_complex(R)
    assert info.value.stage == "complexes.cochain"
    assert "delta o delta" in info.value.invariant


def test_delta_squared_nonzero_raises_under_optimization():
    script = (
        "import numpy as np\n"
        "from swanss import complexes\n"
        "from swanss.corpus import build_suspension_sphere\n"
        "from swanss.errors import InvariantError\n"
        "R = complexes.validate_and_regularize(build_suspension_sphere(3))\n"
        "complexes._face_signs = lambda d: np.ones(d + 1, dtype=np.int64)\n"
        "try:\n"
        "    complexes.cochain_complex(R)\n"
        "except InvariantError as exc:\n"
        "    print(exc)\n"
    )
    assert _under_optimization(script) == "complexes.cochain: delta o delta != 0 out of degree 0\n"


def _cochain_error_under_optimization(fault):
    """What `cochain_complex` raises, under `python -O`, on the regularized
    triangle R after the statements `fault` broke its action."""
    script = (
        "import numpy as np\n"
        "from swanss import complexes\n"
        "from swanss.corpus import build_circle\n"
        "from swanss.errors import InvariantError\n"
        "R = complexes.validate_and_regularize(build_circle(3))\n"
        + fault +
        "try:\n"
        "    complexes.cochain_complex(R)\n"
        "except InvariantError as exc:\n"
        "    print(exc)\n"
    )
    return _under_optimization(script)


def test_action_not_commuting_with_delta_raises_under_optimization():
    fault = ("complexes.SimplicialGComplex.is_regular = lambda self: True\n"
             "R._image[1] = np.arange(len(R.rows[1]))\n")
    assert _cochain_error_under_optimization(fault) == (
        "complexes.cochain: the action does not commute with delta out of degree 0\n")


def test_action_of_order_not_dividing_p_raises_under_optimization():
    fault = ("R._image[0] = np.array([0, 2, 1, 4, 3, 5])\n"
             "R._image[1] = R._index_of(1, np.sort(R._image[0][R.rows[1]], axis=1))\n")
    assert _cochain_error_under_optimization(fault) == "complexes.cochain: t^p != 1 on 0-cochains\n"
