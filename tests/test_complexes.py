import json

import numpy as np
import pytest

from swanss.complexes import (
    ComplexFileError,
    FaceClosureError,
    SimplicialGComplex,
    barycentric_subdivision,
    betti_numbers,
    cochain_complex,
    cohomology_gmodules,
    fixed_subcomplex,
    load_complex_json,
    quotient_complex,
    validate_and_regularize,
)
from swanss.corpus import (
    build_circle,
    build_sphere_join,
    build_suspension_sphere,
    build_trivial_circle,
)
from swanss.linalg import rank_mod
from swanss.report import analyze_complex
from swan_helpers import dense_delta
import complex_reference as ref


def test_report_counts_subdivisions():
    tri = SimplicialGComplex.from_maximal(3, 3, [1, 2, 0], [(0, 1), (1, 2), (0, 2)])
    assert analyze_complex(tri)["complex"]["subdivisions"] == 1
    assert analyze_complex(build_trivial_circle(3))["complex"]["subdivisions"] == 0


def test_triangle_circle_needs_subdivision():
    tri = SimplicialGComplex.from_maximal(3, 3, [1, 2, 0], [(0, 1), (1, 2), (0, 2)])
    # the wraparound edge {0,2} maps to {0,1} order-reversingly
    assert [tri.generator[v] for v in (0, 2)] == [1, 0]
    assert not tri.is_order_compatible()
    R = validate_and_regularize(tri)
    assert R.f_vector() == [6, 6]
    assert R.is_order_compatible() and R.is_regular()


def test_regularity_fails_on_a_simplex_turned_in_itself():
    # the rotation fixes the 2-simplex and the swap the edge, setwise only
    filled = SimplicialGComplex.from_maximal(3, 3, [1, 2, 0], [(0, 1, 2)])
    edge = SimplicialGComplex.from_maximal(2, 2, [1, 0], [(0, 1)])
    for K in (filled, edge):
        assert not K.is_regular()
        assert barycentric_subdivision(K).is_regular()
    assert build_circle(3).is_regular()  # no simplex is fixed setwise


def test_trivial_action_unchanged():
    K = SimplicialGComplex.from_maximal(3, 4, [0, 1, 2, 3], [(0, 1, 2), (1, 2, 3)])
    assert validate_and_regularize(K) is K


def test_semifree_join_fixed_set_is_second_circle():
    K = build_sphere_join(5, 1, 0)
    R = validate_and_regularize(K)
    FX = fixed_subcomplex(R)
    assert betti_numbers(FX) == [1, 1]


def test_cochain_complex_point():
    K = SimplicialGComplex(3, 1, [0], [(0,)])
    C = cochain_complex(K)
    assert C.dims == [1]
    assert C.cohomology_dims() == [1]


def test_circle_euler_characteristic_zero():
    R = validate_and_regularize(build_circle(3))
    C = cochain_complex(R)
    assert C.dims[0] == C.dims[1]


def test_suspension_sphere_cohomology():
    R = validate_and_regularize(build_suspension_sphere(3))
    C = cochain_complex(R)
    assert C.cohomology_dims() == [1, 0, 1]
    prof = cohomology_gmodules(C)
    assert [str(dec) for dec in prof.decompositions] == ["1*V_1", "0", "1*V_1"]


def test_cone_is_contractible():
    # cone on a triangle boundary, trivial action
    K = SimplicialGComplex.from_maximal(
        3, 4, [0, 1, 2, 3], [(0, 1, 3), (1, 2, 3), (0, 2, 3)]
    )
    C = cochain_complex(K)
    assert C.cohomology_dims() == [1, 0, 0]


def test_free_join_cohomology():
    R = validate_and_regularize(build_sphere_join(3, 1, 1))
    C = cochain_complex(R)
    assert C.cohomology_dims() == [1, 0, 0, 1]
    prof = cohomology_gmodules(C)
    assert prof.t_numbers == [1, 0, 0, 1]


def test_cup_unit_law():
    R = validate_and_regularize(build_circle(3))
    C = cochain_complex(R)
    one = np.ones(C.dims[0], dtype=np.int64)
    rng = np.random.default_rng(3)
    beta = rng.integers(0, 3, C.dims[1])
    assert np.array_equal(C.cup(0, one, 1, beta), beta % 3)


def test_cup_degree_overflow_is_zero():
    R = validate_and_regularize(build_circle(3))
    C = cochain_complex(R)
    rng = np.random.default_rng(4)
    a = rng.integers(0, 3, C.dims[1])
    out = C.cup(1, a, 1, a)
    assert out.size == 0


def test_cup_leibniz_random():
    R = validate_and_regularize(build_sphere_join(3, 1, 1))
    C = cochain_complex(R)
    p = 3
    rng = np.random.default_rng(5)
    for _ in range(50):
        l, lp = int(rng.integers(0, 3)), int(rng.integers(0, 2))
        if l + lp + 1 > C.top_degree:
            continue
        a = rng.integers(0, p, C.dims[l])
        b = rng.integers(0, p, C.dims[lp])
        lhs = dense_delta(C, l + lp) @ C.cup(l, a, lp, b) % p
        rhs = C.cup(l + 1, dense_delta(C, l) @ a % p, lp, b)
        sign = (-1) ** l % p
        rhs = (rhs + sign * C.cup(l, a, lp + 1, dense_delta(C, lp) @ b % p)) % p
        assert np.array_equal(lhs, rhs)


def test_cup_equivariance_random():
    for name, builder in (("join", lambda: build_sphere_join(3, 1, 1)),
                          ("suspension", lambda: build_suspension_sphere(5))):
        R = validate_and_regularize(builder())
        C = cochain_complex(R)
        p = C.p
        rng = np.random.default_rng(6)
        for _ in range(40):
            l, lp = int(rng.integers(0, C.top_degree)), int(rng.integers(0, 2))
            if l + lp > C.top_degree:
                continue
            a = rng.integers(0, p, C.dims[l])
            b = rng.integers(0, p, C.dims[lp])
            lhs = C.apply_action(l + lp, C.cup(l, a, lp, b))
            rhs = C.cup(l, C.apply_action(l, a), lp, C.apply_action(lp, b))
            assert np.array_equal(lhs, rhs)


def test_circle_h1_cup_h1_is_zero():
    R = validate_and_regularize(build_circle(3))
    C = cochain_complex(R)
    h1 = C.cohomology()[1].reps[:, 0]
    assert C.cup(1, h1, 1, h1).size == 0


def test_s3_pd_pairing_h0_h3():
    R = validate_and_regularize(build_sphere_join(3, 1, 1))
    C = cochain_complex(R)
    for l in range(4):
        mat = C.cohomology_cup_pairing(l, 3 - l)
        assert mat.dtype == np.int64
        assert mat.shape[0] == mat.shape[1]
        assert rank_mod(mat, 3) == mat.shape[0]


def test_fixed_subcomplex_free_action_empty():
    R = validate_and_regularize(build_circle(5))
    assert fixed_subcomplex(R).vertex_count == 0


def test_quotient_of_free_circle_is_circle():
    R = validate_and_regularize(build_circle(3))
    Q = quotient_complex(R)
    assert betti_numbers(Q) == [1, 1]
    assert Q.euler_characteristic() == 0


def test_quotient_euler_formula_corpus():
    for K in (build_circle(3), build_sphere_join(3, 1, 0), build_suspension_sphere(3)):
        R = validate_and_regularize(K)
        FX = fixed_subcomplex(R)
        Q = quotient_complex(R)
        assert R.euler_characteristic() - FX.euler_characteristic() == K.p * (
            Q.euler_characteristic() - FX.euler_characteristic()
        )


def test_subdivision_preserves_euler():
    K = build_sphere_join(3, 1, 1)
    S = barycentric_subdivision(K)
    assert S.euler_characteristic() == K.euler_characteristic()
    assert S.is_order_compatible() and S.is_regular()


def test_action_on_cohomology_uses_inverse_generator():
    # on the free circle both conventions act trivially; check on chains:
    # the action matrix composed p times is the identity with signs +1
    R = validate_and_regularize(build_circle(5))
    C = cochain_complex(R)
    v = np.eye(C.dims[1], dtype=np.int64)
    out = v
    for _ in range(5):
        out = C.apply_action(1, out)
    assert np.array_equal(out, v)


def test_empty_and_single_vertex_complexes():
    pt = SimplicialGComplex(5, 1, [0], [(0,)])
    assert pt.f_vector() == [1]
    C = cochain_complex(pt)
    assert cohomology_gmodules(C).betti == [1]


def test_json_load_and_errors():
    K = build_circle(3)
    text = json.dumps(K.to_json())
    back = load_complex_json(text)
    assert back.f_vector() == K.f_vector()

    broken = {
        "p": 3,
        "vertices": 3,
        "generator": [1, 2, 0],
        "simplices": [[0], [1], [2], [0, 1], [1, 2]],
    }
    # {0,2} missing entirely: generator does not map {1,2} anywhere
    with pytest.raises(ValueError):
        load_complex_json(json.dumps(broken))

    no_closure = {
        "p": 2,
        "vertices": 2,
        "generator": [0, 1],
        "simplices": [[0, 1]],
    }
    with pytest.raises(ComplexFileError) as err:
        load_complex_json(json.dumps(no_closure, indent=1))
    assert err.value.line is not None
    assert "lacks face [1]" in str(err.value)


def test_generator_must_be_permutation_of_right_order():
    with pytest.raises(ValueError):
        SimplicialGComplex(3, 2, [1, 0], [(0,), (1,)])  # order 2 does not divide 3


# -- constructor and loader errors: each names the first offending simplex ----


@pytest.mark.parametrize("n, generator, simplices, error, message", [
    # in the order given, whichever check it fails
    (3, [0, 1, 2], [(0,), (2, 1), (5,)], ValueError, "simplex (2, 1) is not strictly increasing"),
    (3, [0, 1, 2], [(0,), (5,), (2, 1)], ValueError, "simplex (5,) has out-of-range vertices"),
    (3, [0, 1, 2], [(0,), (1, 1)], ValueError, "simplex (1, 1) is not strictly increasing"),
    (3, [0, 1, 2], [(0,), ()], ValueError, "simplex () is not strictly increasing"),
    (3, [0, 1, 2], [(-1,)], ValueError, "simplex (-1,) has out-of-range vertices"),
    (3, [0, 1, 2], [(0,), (3,)], ValueError, "simplex (3,) has out-of-range vertices"),
    # simplices given as the rows of 2-D arrays are checked the same way
    (3, [0, 1, 2], [np.array([[0], [3]])], ValueError, "simplex (3,) has out-of-range vertices"),
    (3, [0, 1, 2], [np.array([[0], [1]]), np.array([[0, 1], [2, 1]])], ValueError,
     "simplex (2, 1) is not strictly increasing"),
    (3, [0, 1, 2], [(0,), (10**30,)], ValueError,
     "simplex (1000000000000000000000000000000,) has out-of-range vertices"),
    (3, [0, 1, 2], [(-10**30, 0)], ValueError,
     "simplex (-1000000000000000000000000000000, 0) has out-of-range vertices"),
    # face closure: by dimension, then lexicographically; within a simplex
    # s the faces s minus s[0], s minus s[1], ...
    (4, [0, 1, 2, 3], [(0,), (1,), (2,), (0, 1), (2, 3), (0, 1, 2)], FaceClosureError,
     "simplex [2, 3] lacks face [3]"),
    (4, [0, 1, 2, 3], [(0,), (1,), (2,), (3,), (0, 1), (0, 3), (0, 1, 3), (0, 1, 2)],
     FaceClosureError, "simplex [0, 1, 2] lacks face [1, 2]"),
    (3, [0, 1, 2], [(0,), (1,), (2,), (1, 2), (0, 1), (0, 1, 2)], FaceClosureError,
     "simplex [0, 1, 2] lacks face [0, 2]"),
    (3, [0, 1, 2], [(0,), (1,), (2,), (1, 2), (0, 2), (0, 1, 2)], FaceClosureError,
     "simplex [0, 1, 2] lacks face [0, 1]"),
    # the action: the generator first, then every simplex, by dimension
    (2, [0, 0], [(0,)], ValueError, "generator is not a permutation of the vertices"),
    (2, [0, 10**30], [(0,)], ValueError, "generator is not a permutation of the vertices"),
    (2, [1, 0], [(0,), (1,)], ValueError, "generator order does not divide p"),
    (3, [1, 2, 0], [(0,), (1,)], ValueError, "generator does not map simplex (1,) to a simplex"),
    (3, [1, 2, 0], [(0,), (1,), (2,), (0, 1), (1, 2)], ValueError,
     "generator does not map simplex (1, 2) to a simplex"),
])
def test_constructor_names_the_first_offending_simplex(n, generator, simplices, error, message):
    with pytest.raises(ValueError) as info:
        SimplicialGComplex(3, n, generator, simplices)
    assert type(info.value) is error
    assert str(info.value) == message


def test_load_names_the_first_missing_face_with_its_place():
    text = ('{"p": 2, "vertices": 4, "generator": [0, 1, 2, 3],\n'
            ' "simplices": [[0], [1], [2], [3],\n'
            '  [0, 1], [0, 3],\n'
            '  [0, 1, 3], [0, 1, 2]]}\n')
    with pytest.raises(ComplexFileError) as info:
        load_complex_json(text)
    assert (info.value.line, info.value.column) == (4, 14)
    assert str(info.value) == "line 4, column 14: simplex [0, 1, 2] lacks face [1, 2]"


def test_load_passes_action_errors_through():
    text = json.dumps({"p": 3, "vertices": 3, "generator": [1, 2, 0],
                       "simplices": [[0], [1], [2], [0, 1], [1, 2]]})
    with pytest.raises(ValueError) as info:
        load_complex_json(text)
    assert type(info.value) is ValueError
    assert str(info.value) == "generator does not map simplex (1, 2) to a simplex"


def test_wide_vertex_keys_sort_and_find_as_the_rows_do():
    # the 6-simplex is keyed by bytes (601^7 > 2^64), two per vertex: vertex
    # 256 is 0x0100 and sorts after 255 = 0x00ff only when the bytes are
    # compared big end first; the faces below it are keyed by words
    g = [v + 300 if v < 300 else v - 300 if v < 600 else v for v in range(601)]
    s = (0, 1, 255, 256, 257, 299, 600)
    t = tuple(g[v] for v in s)
    closed = SimplicialGComplex.from_maximal(2, 601, g, [s, t]).to_json()["simplices"]
    listed = closed[::-1] + closed[5:9]
    K = SimplicialGComplex(2, 601, g, listed)
    assert K.to_json() == ref.as_json(2, 601, g, listed)
    assert K.f_vector() == [13, 42, 70, 70, 42, 14, 2]
    for d, top in ref.simplices(K).items():
        assert K._index_of(d, top).tolist() == list(range(K.f_vector()[d]))
    assert not K._find(1, np.array([[255, 300]]))[1].any()
    assert fixed_subcomplex(K).to_json() == ref.fixed_subcomplex(K)
    assert barycentric_subdivision(K).to_json() == ref.barycentric_subdivision(K)
    assert quotient_complex(K).to_json() == ref.quotient_complex(K)
    assert betti_numbers(K) == [1, 0, 0, 0, 0, 0, 0]

    drop = [list(s[:1] + s[2:]), list(s[:3] + s[4:]), list(t[1:])]
    with pytest.raises(FaceClosureError) as info:
        SimplicialGComplex(2, 601, g, [f for f in listed if f not in drop])
    assert str(info.value) == ("simplex [0, 1, 255, 256, 257, 299, 600] "
                               "lacks face [0, 255, 256, 257, 299, 600]")
