import copy
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
from swanss.corpus import build_circle
from swanss.swan import SwanDoubleComplex, WindowError
from swan_helpers import dense_h, tot_differential, tot_product


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
        assert dc._sparse_columns("h", 0, l) == dc._sparse_columns("h", 2, l)
        assert dc._sparse_columns("h", 1, l) == dc._sparse_columns("h", 17, l)


def _suspended_circle(p):
    """The suspension of the free circle: the action is semifree, the poles are fixed."""
    circle = build_circle(p)
    m = circle.vertex_count
    tri = [e + (pole,) for e in circle.simplices[1] for pole in (m, m + 1)]
    return SimplicialGComplex.from_maximal(p, m + 2, list(circle.generator) + [m, m + 1], tri)


def _dense(columns, rows):
    out = np.zeros((rows, len(columns)), dtype=np.int64)
    for j, col in enumerate(columns):
        for r, v in col.items():
            out[r, j] = v
    return out


def _assert_h_matches_dense_reference(dc):
    for l in range(dc.n + 1):
        for parity in (0, 1):
            columns = dc._sparse_columns("h", parity, l)
            assert all(v % dc.p for col in columns for v in col.values())
            ref = dense_h(dc, parity, l)
            assert np.array_equal(_dense(columns, dc.base.dim(l)), ref)
            eye = np.eye(dc.base.dim(l), dtype=np.int64)
            assert np.array_equal(dc.apply_h(parity, l, eye), ref)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("build", [build_circle, _suspended_circle], ids=["free", "semifree"])
def test_h_columns_equal_the_dense_reference(p, build):
    K = validate_and_regularize(build(p))
    _assert_h_matches_dense_reference(SwanDoubleComplex(cochain_complex(K)))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_h_columns_follow_the_signs_of_the_permutation(p):
    # regularized complexes have every sign +1; random signs exercise the column formula
    C = copy.copy(cochain_complex(validate_and_regularize(_suspended_circle(p))))
    rng = np.random.default_rng(p)
    C.act_sign = [rng.integers(1, p, C.dim(l)) for l in range(C.top_degree + 1)]
    _assert_h_matches_dense_reference(SwanDoubleComplex(C))


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
    ranks = [sparse_rank(dc.total_differential_columns(s), dc.p) for s in range(limit + 1)]
    return [dc.tot_dim(s) - (ranks[s - 1] if s else 0) - ranks[s] for s in range(limit + 1)]


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
    ranks = [sparse_rank(dc.total_differential_columns(s), p) for s in (dc.n, dc.n + 1)]
    assert ranks[0] != ranks[1]
    assert dc.total_cohomology_dims() == _direct_total_dims(dc)


def test_disagreeing_periods_raise(monkeypatch):
    # a rank that changes with every call cannot repeat with period 2
    calls = itertools.count()
    monkeypatch.setattr(swan, "sparse_rank", lambda columns, p: next(calls))
    pt = SimplicialGComplex(3, 1, [0], [(0,)])
    with pytest.raises(InvariantError) as info:
        SwanDoubleComplex(cochain_complex(pt)).total_cohomology_dims()
    assert info.value.stage == "swan.tot_dims"


def test_disagreeing_periods_raise_under_optimization():
    script = (
        "import itertools\n"
        "from swanss import swan\n"
        "from swanss.complexes import SimplicialGComplex, cochain_complex\n"
        "from swanss.errors import InvariantError\n"
        "calls = itertools.count()\n"
        "swan.sparse_rank = lambda columns, p: next(calls)\n"
        "dc = swan.SwanDoubleComplex(cochain_complex(SimplicialGComplex(3, 1, [0], [(0,)])))\n"
        "try:\n"
        "    dc.total_cohomology_dims()\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(swan.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == "raised\n", proc.stderr


def _rotated_triangle():
    return validate_and_regularize(build_circle(3))


def test_action_not_commuting_with_delta_raises(monkeypatch):
    # T is the identity on edges but rotates the vertices, so T delta != delta T
    # while t^p = 1 still holds
    R = _rotated_triangle()
    assert R.is_regular() and R.is_order_compatible()
    monkeypatch.setattr(SimplicialGComplex, "is_regular", lambda self: True)
    image = SimplicialGComplex.generator_image_ordered
    monkeypatch.setattr(SimplicialGComplex, "generator_image_ordered",
                        lambda self, s, power=1: s if len(s) == 2 else image(self, s, power))
    with pytest.raises(InvariantError) as info:
        cochain_complex(R)
    assert info.value.stage == "complexes.cochain"
    assert "commute" in info.value.invariant


def test_action_of_order_not_dividing_p_raises(monkeypatch):
    # every sign -1 commutes with delta, but then t^3 = -1 on every degree
    R = _rotated_triangle()
    monkeypatch.setattr(complexes, "_perm_sign", lambda seq: -1)
    with pytest.raises(InvariantError) as info:
        cochain_complex(R)
    assert info.value.stage == "complexes.cochain"
    assert "t^p != 1" in info.value.invariant


def test_action_of_order_not_dividing_p_raises_under_optimization():
    script = (
        "from swanss import complexes\n"
        "from swanss.corpus import build_circle\n"
        "from swanss.errors import InvariantError\n"
        "R = complexes.validate_and_regularize(build_circle(3))\n"
        "complexes._perm_sign = lambda seq: -1\n"
        "try:\n"
        "    complexes.cochain_complex(R)\n"
        "except InvariantError as exc:\n"
        "    print(exc.stage)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(swan.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == "complexes.cochain\n", proc.stderr
