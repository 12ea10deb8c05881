"""The orbit quotient against the subdivide-until-safe path it replaced,
on random G-complexes, and the errors of the regularize and quotient steps."""

import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swanss import complexes
from swanss.complexes import (
    SimplicialGComplex,
    barycentric_subdivision,
    betti_numbers,
    cochain_complex,
    fixed_subcomplex,
    quotient_complex,
    validate_and_regularize,
)
from swanss.corpus import build_circle
from swanss.errors import InvariantError
from swanss.swan import SwanDoubleComplex

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
    for d in range(1, K.dim + 1):
        for s in K.simplices[d]:
            if len({orbit[v] for v in s}) != len(s):
                return False
    for d in range(K.dim + 1):
        image_owner: dict[tuple, tuple] = {}
        for s in K.simplices[d]:
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
    images = {tuple(sorted(orbit[v] for v in s)) for d in range(Q.dim + 1) for s in Q.simplices[d]}
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
