import numpy as np
import pytest

from swanss.gmodule import (
    CohomologyProfile,
    Decomposition,
    GModule,
    check_dual_pairing,
    chi_t,
    decompose,
    group_cohomology,
    is_nice,
    module_from_multiplicities,
    t_sum,
    t_tail_sum,
)
from swanss.linalg import FactoredSolve, matmul_mod, rank_mod


def random_invertible(rng, p, n):
    while True:
        g = rng.integers(0, p, (n, n))
        if rank_mod(g, p) == n:
            return g


def conjugate(module: GModule, g: np.ndarray) -> GModule:
    p = module.p
    inv = FactoredSolve(g, p).solve_many(np.eye(g.shape[0], dtype=np.int64))
    return GModule(p, matmul_mod(matmul_mod(g, module.action, p), inv, p))


def test_gmodule_rejects_non_actions():
    with pytest.raises(ValueError):
        GModule(3, [[2, 0], [0, 1]])  # order 2, not dividing 3


def reference_power(a, e: int, p: int) -> np.ndarray:
    """a^e mod p by e products of Python integers."""
    n = len(a)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(e):
        out = [[sum(out[i][k] * int(a[k][j]) for k in range(n)) % p for j in range(n)]
               for i in range(n)]
    return np.array(out, dtype=np.int64).reshape(n, n)


def test_gmodule_accepts_exactly_the_actions_of_order_dividing_p():
    # in characteristic p, (A - 1)^p = A^p - 1, so every accepted action
    # is unipotent without the constructor checking it
    rng = np.random.default_rng(31)
    for p in (2, 3, 5, 7):
        accepted = rejected = 0
        for trial in range(90):
            if trial % 3 == 0:  # random entries
                n = int(rng.integers(1, 4))
                a = rng.integers(0, p, (n, n))
            else:  # a hidden module, one entry changed every third time
                mult = {1: int(rng.integers(0, 2))}
                d = int(rng.integers(1, p + 1))
                mult[d] = mult.get(d, 0) + 1
                module = module_from_multiplicities(p, mult)
                n = module.dim
                a = conjugate(module, random_invertible(rng, p, n)).action.copy()
                if trial % 3 == 2:
                    i, j = rng.integers(0, n, 2)
                    a[i, j] = (a[i, j] + rng.integers(1, p)) % p
            ident = np.eye(n, dtype=np.int64)
            if np.array_equal(reference_power(a, p, p), ident):
                accepted += 1
                assert np.array_equal(GModule(p, a).action, a)
                assert not reference_power(np.mod(a - ident, p), p, p).any()
            else:
                rejected += 1
                with pytest.raises(ValueError, match="action does not have order dividing p"):
                    GModule(p, a)
        assert accepted >= 30 and rejected >= 10, (p, accepted, rejected)


def test_decompose_trivial():
    assert decompose(GModule(5, np.eye(2, dtype=np.int64))).multiplicities == {1: 2}


def test_decompose_regular_representation():
    assert decompose(module_from_multiplicities(3, {3: 1})).multiplicities == {3: 1}


def test_decompose_v2_plus_v1_rank_sequence():
    # hand oracle: ranks of (t-1)^d are (3, 1, 0, 0)
    m = module_from_multiplicities(3, {2: 1, 1: 1})
    shifted = m.shifted()
    ranks = [3]
    power = np.eye(3, dtype=np.int64)
    for _ in range(3):
        power = matmul_mod(power, shifted, 3)
        ranks.append(rank_mod(power, 3))
    assert ranks == [3, 1, 0, 0]
    assert decompose(m).multiplicities == {1: 1, 2: 1}


def test_decompose_conjugation_roundtrip_500():
    rng = np.random.default_rng(2024)
    for trial in range(500):
        p = int(rng.choice([2, 3, 5, 7]))
        mult = {}
        total = 0
        for _ in range(int(rng.integers(1, 4))):
            d = int(rng.integers(1, p + 1))
            mult[d] = mult.get(d, 0) + 1
            total += d
        module = module_from_multiplicities(p, mult)
        conj = conjugate(module, random_invertible(rng, p, total))
        assert decompose(conj).multiplicities == mult


def test_decompose_generator_independent():
    rng = np.random.default_rng(7)
    for p in (3, 5, 7):
        module = module_from_multiplicities(p, {1: 1, 2: 1, p: 1})
        for a in range(2, p):
            powered = GModule(p, reference_power(module.action, a, p))
            assert decompose(powered).multiplicities == {1: 1, 2: 1, p: 1}


def test_group_cohomology_closed_form_table():
    # dims: 1 for V_i with i < p in every degree, 0 above degree 0 for V_p
    for p in (2, 3, 5, 7):
        for i in range(1, p + 1):
            module = module_from_multiplicities(p, {i: 1})
            assert group_cohomology(module, 0).dim == 1
            for k in range(1, 6):
                expected = 1 if i < p else 0
                assert group_cohomology(module, k).dim == expected


def test_group_cohomology_examples():
    assert group_cohomology(module_from_multiplicities(5, {1: 1}), 7).dim == 1
    assert group_cohomology(module_from_multiplicities(3, {3: 1}), 2).dim == 0
    assert group_cohomology(module_from_multiplicities(3, {2: 1}), 1).dim == 1
    # on a trivial module N = p = 0
    assert not module_from_multiplicities(5, {1: 2}).norm_matrix().any()


def test_group_cohomology_two_periodicity():
    rng = np.random.default_rng(9)
    for _ in range(25):
        p = int(rng.choice([3, 5]))
        mult = {int(rng.integers(1, p + 1)): 1, 1: int(rng.integers(0, 3))}
        module = module_from_multiplicities(p, {d: m for d, m in mult.items() if m})
        for k in (1, 2):
            a = group_cohomology(module, k)
            b = group_cohomology(module, k + 2)
            assert a.dim == b.dim
            assert np.array_equal(a.subquotient.reps, b.subquotient.reps)


def test_group_cohomology_rejects_negative_degree():
    with pytest.raises(ValueError):
        group_cohomology(GModule(3, np.eye(1, dtype=np.int64)), -1)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        Decomposition(3, {1: 1}).group_cohomology_dim(-1)


def test_is_nice():
    assert is_nice(GModule(3, np.eye(4, dtype=np.int64)))
    assert not is_nice(module_from_multiplicities(5, {4: 1}))
    # over F_2 only trivial and free summands exist
    assert is_nice(module_from_multiplicities(2, {1: 1, 2: 2}))


def test_dual_pairing_identity_on_trivial():
    m = GModule(3, np.eye(2, dtype=np.int64))
    assert check_dual_pairing(m, m, np.eye(2, dtype=np.int64))
    assert check_dual_pairing(m, m, np.eye(2, dtype=np.int64) + 3)  # entries read mod p


def test_dual_pairing_zero_fails():
    m = GModule(3, np.eye(2, dtype=np.int64))
    assert not check_dual_pairing(m, m, np.zeros((2, 2), dtype=np.int64))


def test_dual_pairing_v3_evaluation():
    v3 = module_from_multiplicities(3, {3: 1})
    dual = v3.dual()
    assert check_dual_pairing(v3, dual, np.eye(3, dtype=np.int64))
    assert decompose(dual) == decompose(v3)


def test_dual_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        check_dual_pairing(
            GModule(3, np.eye(2, dtype=np.int64)),
            GModule(3, np.eye(3, dtype=np.int64)),
            np.zeros((2, 2), dtype=np.int64),
        )


def test_dual_pairing_non_equivariant_fails():
    v2 = module_from_multiplicities(3, {2: 1})
    # a random non-equivariant full-rank pairing
    pairing = np.array([[1, 1], [0, 1]])
    moved = matmul_mod(matmul_mod(v2.action.T, pairing, 3), v2.dual().action, 3)
    if not np.array_equal(moved, pairing):
        assert not check_dual_pairing(v2, v2.dual(), pairing)


def test_profile_t_numbers_and_sums():
    # 3-sphere model: t = (1, 0, 0, 1)
    prof = CohomologyProfile.from_multiplicities(5, [{1: 1}, {}, {}, {1: 1}])
    assert prof.t_numbers == [1, 0, 0, 1]
    assert chi_t(prof) == 0
    assert t_sum(prof) == 2
    assert t_tail_sum(prof, 1) == 1


def test_profile_all_zero():
    prof = CohomologyProfile.from_multiplicities(3, [{3: 1}, {3: 2}])
    assert chi_t(prof) == 0 and t_sum(prof) == 0


def test_nice_profile_t_equals_trivial_dim():
    # T^i of dims (1, b, b, 1) plus free summands: t-sum is 2 + 2b
    b = 3
    prof = CohomologyProfile.from_multiplicities(
        5, [{1: 1}, {1: b, 5: 2}, {1: b, 5: 1}, {1: 1}]
    )
    assert t_sum(prof) == 2 + 2 * b
    assert prof.is_nice()


def test_closed_form_matches_group_cohomology_and_the_dual():
    # random modules under a random change of basis: H^k read off the
    # decomposition against its kernel/image presentation, and every V_d
    # self-dual
    rng = np.random.default_rng(77)
    for _ in range(60):
        p = int(rng.choice([2, 3, 5, 7]))
        mult = {}
        for _ in range(int(rng.integers(1, 5))):
            d = int(rng.integers(1, p + 1))
            mult[d] = mult.get(d, 0) + 1
        block = module_from_multiplicities(p, mult)
        module = conjugate(block, random_invertible(rng, p, block.dim))
        dec = decompose(module)
        assert dec.multiplicities == mult
        for k in range(5):
            assert dec.group_cohomology_dim(k) == group_cohomology(module, k).dim, (p, mult, k)
        assert decompose(module.dual()) == dec


@pytest.mark.parametrize("p, per_degree", [
    (3, [{1: 1, 2: -1}]),   # a negative multiplicity
    (4, [{1: 1}]),          # a modulus that is not prime
    (3, [{1: 1}, {4: 1}]),  # summand sizes outside 1..p
    (3, [{0: 1}]),
])
def test_profile_of_what_is_no_module_is_refused(p, per_degree):
    with pytest.raises(ValueError):
        CohomologyProfile.from_multiplicities(p, per_degree)
    with pytest.raises(ValueError):
        module_from_multiplicities(p, per_degree[-1])


@pytest.mark.parametrize("build", [
    lambda: Decomposition(4, {3: 1}),
    lambda: CohomologyProfile(4, []),
    lambda: CohomologyProfile.from_multiplicities(4, []),
])
def test_a_modulus_that_is_not_prime_is_refused(build):
    with pytest.raises(ValueError, match="not prime"):
        build()


def test_negative_multiplicity_detection():
    # a matrix of order dividing p whose (t-1)-ranks cannot arise from a
    # module is impossible; instead check the constructor rejects wrong order
    with pytest.raises(ValueError):
        GModule(5, [[0, 1], [1, 0]])  # order 2


def test_json_roundtrip():
    m = module_from_multiplicities(3, {2: 1, 1: 1})
    data = m.to_json()
    back = GModule.from_json(data)
    assert back == m
    assert decompose(back).to_json() == {"1": 1, "2": 1}
