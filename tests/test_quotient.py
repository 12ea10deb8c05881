"""The orbit quotient against the subdivide-until-safe path it replaced,
and the orbit-cell f-vector and Betti numbers against the tuple reference
quotient, on random G-complexes and the pinned inputs, and the errors of
the regularize and quotient steps."""

import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import complex_reference
from complex_reference import simplices
from swanss import complexes
from swanss.complexes import (
    SimplicialGComplex,
    barycentric_subdivision,
    betti_numbers,
    cochain_complex,
    fixed_subcomplex,
    quotient_complex,
    quotient_numbers,
    validate_and_regularize,
)
from swanss.corpus import build_circle, build_sphere_join
from swanss.errors import InvariantError
from swanss.swan import SwanDoubleComplex
from test_report_digests import REPORTS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# -- the old path, kept as a reference ----------------------------------------


def _power_image(K: SimplicialGComplex, simplex: tuple, power: int) -> tuple:
    s = list(simplex)
    for _ in range(power):
        s = [K.generator[v] for v in s]
    return tuple(sorted(s))


def _reference_orbits(K: SimplicialGComplex) -> list[int]:
    """Orbit id per vertex: the rank of the orbit's least vertex among all."""
    least = []
    for v in range(K.vertex_count):
        orbit, w = [v], K.generator[v]
        while w != v:
            orbit.append(w)
            w = K.generator[w]
        least.append(min(orbit))
    rank = {m: i for i, m in enumerate(sorted(set(least)))}
    return [rank[m] for m in least]


def _reference_is_quotient_safe(K: SimplicialGComplex) -> bool:
    """No simplex holds two vertices of one orbit, and equal orbit images
    come from one orbit (its least member is compared)."""
    orbit = _reference_orbits(K)
    S = simplices(K)
    for d in range(1, K.dim + 1):
        for s in S[d]:
            if len({orbit[v] for v in s}) != len(s):
                return False
    for d in range(K.dim + 1):
        image_owner: dict[tuple, tuple] = {}
        for s in S[d]:
            img = tuple(sorted(orbit[v] for v in s))
            rep = min(_power_image(K, s, j) for j in range(K.p))
            if image_owner.setdefault(img, rep) != rep:
                return False
    return True


def _reference_quotient(K: SimplicialGComplex) -> tuple[SimplicialGComplex, int]:
    """Subdivide until quotient-safe (at most twice) and take orbit images;
    returns the quotient and the number of subdivisions."""
    Q, subdivisions = K, 0
    while not _reference_is_quotient_safe(Q):
        if subdivisions == 2:
            raise RuntimeError("no simplicial quotient after two subdivisions")
        Q, subdivisions = barycentric_subdivision(Q), subdivisions + 1
    orbit = _reference_orbits(Q)
    n_orbits = max(orbit) + 1 if orbit else 0
    images = {tuple(sorted(orbit[v] for v in s)) for top in simplices(Q).values() for s in top}
    return SimplicialGComplex(Q.p, n_orbits, list(range(n_orbits)),
                              sorted(images, key=lambda s: (len(s), s))), subdivisions


# -- random orbit closures ----------------------------------------------------

MAX_SIMPLICES = 40


@st.composite
def orbit_closures(draw):
    """The orbit closure of random simplices on free orbits of p vertices
    plus fixed vertices, relabelled onto the vertices it uses."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    orbits = draw(st.integers(0, 2 if p < 5 else 1))
    fixed = draw(st.integers(0 if orbits else 1, 3))
    n = orbits * p + fixed
    gen = [(v // p) * p + (v + 1) % p for v in range(orbits * p)] + list(range(orbits * p, n))
    top = min(3, n - 1)
    seeds = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=min(2, n), max_size=top + 1),
                          min_size=1, max_size=2))
    closed = set()
    for s in seeds:
        cur = tuple(sorted(s))
        for _ in range(p):
            for size in range(1, len(cur) + 1):
                closed.update(itertools.combinations(cur, size))
            cur = tuple(sorted(gen[v] for v in cur))
    assume(len(closed) <= MAX_SIMPLICES)
    used = sorted({v for s in closed for v in s})
    name = {v: i for i, v in enumerate(used)}
    return SimplicialGComplex(p, len(used), [name[gen[v]] for v in used],
                              [tuple(name[v] for v in s) for s in closed])


@settings(max_examples=150, deadline=None)
@given(orbit_closures())
def test_quotient_matches_reference(K):
    R = validate_and_regularize(K)
    Q = quotient_complex(R)
    ref, subdivisions = _reference_quotient(R)
    assert subdivisions <= 1
    assert Q.to_json() == ref.to_json()
    FX = fixed_subcomplex(R)
    assert R.euler_characteristic() - FX.euler_characteristic() == K.p * (
        Q.euler_characteristic() - FX.euler_characteristic())
    if R.is_free():
        tot = SwanDoubleComplex(cochain_complex(R)).total_cohomology_dims()
        assert (betti_numbers(Q) + [0] * len(tot))[: len(tot)] == tot
    _assert_numbers_match_reference(R)


def _assert_numbers_match_reference(R: SimplicialGComplex):
    """The orbit-cell numbers equal the tuple reference quotient's f-vector
    and its Betti numbers ranked by `betti_numbers`."""
    data = complex_reference.quotient_complex(R)
    Q = SimplicialGComplex(data["p"], data["vertices"], data["generator"], data["simplices"])
    assert quotient_numbers(R) == (Q.f_vector(), betti_numbers(Q))


PINNED = {name: build for name, (build, *_) in REPORTS.items()}
PINNED["join-11-1-0"] = lambda: build_sphere_join(11, 1, 0)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_quotient_numbers_match_reference_on_pinned_inputs(name):
    _assert_numbers_match_reference(validate_and_regularize(PINNED[name]()))


# -- errors ------------------------------------------------------------------


def test_quotient_rejects_a_complex_that_is_not_order_compatible():
    tri = build_circle(3)  # the wraparound edge {0,2} is reversed by the rotation
    assert not tri.is_order_compatible()
    with pytest.raises(ValueError, match="order-compatible"):
        quotient_complex(tri)


def test_quotient_count_failing_after_subdivision_raises(monkeypatch):
    R = validate_and_regularize(build_circle(3))  # its images need one subdivision
    monkeypatch.setattr(complexes, "barycentric_subdivision", lambda K: K)
    with pytest.raises(InvariantError) as info:
        quotient_complex(R)
    assert info.value.stage == "complexes.quotient"


def test_quotient_count_failing_raises_under_optimization():
    script = (
        "from swanss import complexes\n"
        "from swanss.corpus import build_circle\n"
        "from swanss.errors import InvariantError\n"
        "R = complexes.validate_and_regularize(build_circle(3))\n"
        "complexes.barycentric_subdivision = lambda K: K\n"
        "try:\n"
        "    complexes.quotient_complex(R)\n"
        "except InvariantError as exc:\n"
        "    print(exc.stage)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.stdout == "complexes.quotient\n", proc.stderr


def test_regularize_failing_after_subdivision_raises(monkeypatch):
    monkeypatch.setattr(complexes, "barycentric_subdivision", lambda K: K)
    with pytest.raises(InvariantError) as info:
        validate_and_regularize(build_circle(3))
    assert info.value.stage == "complexes.regularize"


# the quotient of the regularized circle-2, whose images pass the count,
# broken two ways in a subprocess: the face table gives each edge its first
# face twice, so two faces of one cell share an orbit; or one top image is
# dropped, so the images' Euler characteristic is off by one.  A third way
# breaks the quotient of the regularized join-3-1-1: every face sign is +1,
# so the cell boundary does not square to zero in dimensions 2 and 3, which
# clearing would not notice (its Betti numbers still come out right)
_BREAK_CELLS = """
import sys
import numpy as np
from swanss import complexes
from swanss.corpus import build_circle, build_sphere_join
from swanss.errors import InvariantError
R = complexes.validate_and_regularize(build_circle(2))
if sys.argv[1] == "faces":
    R._faces[1][:, 1] = R._faces[1][:, 0]
elif sys.argv[1] == "signs":
    R = complexes.validate_and_regularize(build_sphere_join(3, 1, 1))
    complexes._face_signs = lambda d: np.ones(d + 1, dtype=np.int64)
else:
    images = complexes._orbit_images

    def one_short(K):
        n, by_size = images(K)
        top = max(by_size)
        return n, {**by_size, top: by_size[top][1:]}
    complexes._orbit_images = one_short
try:
    complexes.quotient_numbers(R)
except InvariantError as exc:
    print(exc.stage, exc.invariant)
"""
BROKEN_CELLS = {
    "faces": "complexes.quotient two faces of the simplex [0, 4] lie in one orbit",
    "euler": "complexes.quotient the orbit cells have Euler characteristic 0, the orbit images 1",
    "signs": "complexes.quotient boundary o boundary != 0 out of dimension 3",
}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
@pytest.mark.parametrize("mode", sorted(BROKEN_CELLS))
def test_broken_orbit_cells_raise_at_quotient(mode, flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _BREAK_CELLS, mode],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.stdout == BROKEN_CELLS[mode] + "\n", proc.stderr


def test_betti_numbers_check_that_the_boundary_squares_to_zero():
    K = SimplicialGComplex.from_maximal(3, 3, [0, 1, 2], [(0, 1, 2)])
    assert betti_numbers(K) == [1, 0, 0]
    # the first two edges of the triangle swap signs, so its boundary's
    # boundary is 2·[2] - 2·[1], not zero mod 3
    K._faces[2][0] = K._faces[2][0][[1, 0, 2]]
    with pytest.raises(InvariantError) as info:
        betti_numbers(K)
    assert (info.value.stage, info.value.invariant) == (
        "complexes.betti", "boundary o boundary != 0 out of dimension 2")
