"""The array operations of `swanss.complexes`, and the action of the cochain
complex, against the per-simplex tuple code they replaced
(`complex_reference`), on random G-complexes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import complex_reference as ref
from swanss import complexes
from swanss.complexes import (
    SimplicialGComplex,
    barycentric_subdivision,
    cochain_complex,
    fixed_subcomplex,
    quotient_complex,
    validate_and_regularize,
)
from swanss.corpus import build_circle, build_sphere_join, build_suspension_sphere
from test_quotient import orbit_closures


def _listed(K):
    return [s for top in ref.simplices(K).values() for s in top]


def _assert_matches_references(K, order):
    # `order` lists K's simplices in another order, some of them twice
    again = SimplicialGComplex(K.p, K.vertex_count, K.generator, order)
    assert again.to_json() == K.to_json() == ref.as_json(K.p, K.vertex_count, K.generator, order)

    assert K.f_vector() == ref.f_vector(K)
    assert all(K._index_of(d, top).tolist() == list(range(len(top)))
               for d, top in ref.simplices(K).items())
    assert K.is_order_compatible() == ref.is_order_compatible(K)
    assert K.is_regular() == ref.is_regular(K)
    assert K.vertex_orbits().tolist() == ref.vertex_orbits(K)
    assert fixed_subcomplex(K).to_json() == ref.fixed_subcomplex(K)
    assert barycentric_subdivision(K).to_json() == ref.barycentric_subdivision(K)
    images, want = complexes._orbit_images(K), ref.orbit_quotient(K)
    assert (images is None) == (want is None)
    if images is not None:
        n_orbits, by_size = images
        Q = SimplicialGComplex(K.p, n_orbits, range(n_orbits), list(by_size.values()))
        assert Q.to_json() == want
    R = validate_and_regularize(K)
    assert quotient_complex(R).to_json() == ref.quotient_complex(R)
    for L in (R, fixed_subcomplex(R)):
        # the action on cochains, a permutation of the simplices with every sign +1
        action = ref.action(L)
        assert [pre.tolist() for pre in cochain_complex(L).act_pre] == [pre for pre, _ in action]
        assert all(sign == 1 for _, signs in action for sign in signs)


@settings(max_examples=150, deadline=None)
@given(orbit_closures(), st.data())
def test_array_operations_match_the_tuple_references(K, data):
    listed = _listed(K)
    twice = data.draw(st.lists(st.sampled_from(listed), max_size=3))
    _assert_matches_references(K, data.draw(st.permutations(listed + twice)))


@pytest.mark.parametrize("build", [
    build_circle,  # its wraparound edge maps two vertices to one orbit image
    lambda p: validate_and_regularize(build_circle(p)),  # fails the orbit count
    lambda p: validate_and_regularize(build_suspension_sphere(p)),
    lambda p: validate_and_regularize(build_sphere_join(p, 1, 0)),  # fixes a circle
], ids=["circle", "regularized-circle", "regularized-suspension", "regularized-semifree-join"])
def test_array_operations_match_the_tuple_references_on_the_corpus(build):
    K = build(3)
    listed = _listed(K)
    _assert_matches_references(K, listed[::-1] + listed[:2])
