import numpy as np
import pytest

from swanss.gmodule import (
    CohomologyProfile,
    GModule,
    check_dual_pairing,
    chi_t,
    decompose,
    group_cohomology,
    is_nice,
    module_from_multiplicities,
    t_number,
    t_sum,
    t_tail_sum,
)
from swanss.linalg import FactoredSolve, PrimeFieldMatrix, rank_mod


def random_invertible(rng, p, n):
    while True:
        g = rng.integers(0, p, (n, n))
        if rank_mod(g, p) == n:
            return g


def conjugate(module: GModule, g: np.ndarray) -> GModule:
    p = module.p
    inv = FactoredSolve(g, p).solve_many(np.eye(g.shape[0], dtype=np.int64))
    G = PrimeFieldMatrix(p, g)
    return GModule(p, G @ module.action @ PrimeFieldMatrix(p, inv))


def test_gmodule_rejects_non_actions():
    with pytest.raises(ValueError):
        GModule(3, [[2, 0], [0, 1]])  # order 2, not dividing 3


def test_decompose_trivial():
    assert decompose(GModule(5, np.eye(2, dtype=np.int64))).multiplicities == {1: 2}


def test_decompose_regular_representation():
    assert decompose(module_from_multiplicities(3, {3: 1})).multiplicities == {3: 1}


def test_decompose_v2_plus_v1_rank_sequence():
    # hand oracle: ranks of (t-1)^d are (3, 1, 0, 0)
    m = module_from_multiplicities(3, {2: 1, 1: 1})
    shifted = m.shifted()
    ranks = [3]
    power = PrimeFieldMatrix.identity(3, 3)
    for _ in range(3):
        power = power @ shifted
        ranks.append(power.rank())
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
            powered = GModule(p, module.action ** a)
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
            assert np.array_equal(a.representatives, b.representatives)


def test_group_cohomology_rejects_negative_degree():
    with pytest.raises(ValueError):
        group_cohomology(GModule(3, np.eye(1, dtype=np.int64)), -1)


def test_is_nice():
    assert is_nice(GModule(3, np.eye(4, dtype=np.int64)))
    assert not is_nice(module_from_multiplicities(5, {4: 1}))
    # over F_2 only trivial and free summands exist
    assert is_nice(module_from_multiplicities(2, {1: 1, 2: 2}))


def test_dual_pairing_identity_on_trivial():
    m = GModule(3, np.eye(2, dtype=np.int64))
    assert check_dual_pairing(m, m, PrimeFieldMatrix.identity(3, 2))


def test_dual_pairing_zero_fails():
    m = GModule(3, np.eye(2, dtype=np.int64))
    assert not check_dual_pairing(m, m, PrimeFieldMatrix(3, np.zeros((2, 2), dtype=np.int64)))


def test_dual_pairing_v3_evaluation():
    v3 = module_from_multiplicities(3, {3: 1})
    dual = v3.dual()
    assert check_dual_pairing(v3, dual, PrimeFieldMatrix.identity(3, 3))
    assert decompose(dual) == decompose(v3)


def test_dual_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        check_dual_pairing(
            GModule(3, np.eye(2, dtype=np.int64)),
            GModule(3, np.eye(3, dtype=np.int64)),
            PrimeFieldMatrix(3, np.zeros((2, 2), dtype=np.int64)),
        )


def test_dual_pairing_non_equivariant_fails():
    v2 = module_from_multiplicities(3, {2: 1})
    # a random non-equivariant full-rank pairing
    pairing = PrimeFieldMatrix(3, [[1, 1], [0, 1]])
    equivariant = v2.action.T @ pairing @ v2.dual().action == pairing
    if not equivariant:
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


def test_t_number_direct_vs_closed_form():
    rng = np.random.default_rng(77)
    for _ in range(30):
        p = int(rng.choice([3, 5, 7]))
        mult = {}
        for _ in range(int(rng.integers(1, 4))):
            d = int(rng.integers(1, p + 1))
            mult[d] = mult.get(d, 0) + 1
        module = module_from_multiplicities(p, mult)
        closed = sum(m for d, m in mult.items() if d < p)
        assert t_number(module) == closed


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
