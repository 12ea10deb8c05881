import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swanss.errors import InvariantError
from swanss.linalg import (
    PANEL,
    FactoredSolve,
    FieldP,
    PrimeFieldMatrix,
    Subquotient,
    column_echelon_mod,
    is_prime,
    kernel_mod,
    matmul_mod,
    rank_mod,
    rref_mod,
    sparse_rank,
)


def test_fieldp_validation():
    FieldP(2)
    FieldP(251)
    with pytest.raises(ValueError):
        FieldP(4)
    with pytest.raises(ValueError):
        FieldP(1)
    with pytest.raises(ValueError):
        FieldP(257)  # prime but beyond the supported bound


def test_rref_empty_matrix():
    m = PrimeFieldMatrix.zeros(5, 0, 0)
    r, pivots = m.rref()
    assert pivots == ()
    assert m.rank() == 0


def test_rref_identity():
    m = PrimeFieldMatrix.identity(5, 3)
    r, pivots = m.rref()
    assert r == m
    assert pivots == (0, 1, 2)


def test_rref_rank_one_over_f3():
    # det(1,2;2,1) = -3 = 0 mod 3, so the rank drops to 1
    m = PrimeFieldMatrix(3, [[1, 2], [2, 1]])
    assert m.rank() == 1


def test_rref_idempotent():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5, 7):
        for _ in range(20):
            a = rng.integers(0, p, (rng.integers(1, 7), rng.integers(1, 7)))
            m = PrimeFieldMatrix(p, a)
            r, _ = m.rref()
            r2, _ = r.rref()
            assert r == r2


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = int(rng.choice([2, 3, 5, 7]))
        a = rng.integers(0, p, (rng.integers(1, 9), rng.integers(1, 9)))
        m = PrimeFieldMatrix(p, a)
        assert m.rank() == m.T.rank()


def test_kernel_of_zero_map():
    m = PrimeFieldMatrix.zeros(3, 1, 2)
    assert m.kernel_basis().cols == 2


def test_kernel_image_rank_nullity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = int(rng.choice([2, 3, 5, 7]))
        a = rng.integers(0, p, (rng.integers(1, 8), rng.integers(1, 8)))
        m = PrimeFieldMatrix(p, a)
        k = m.kernel_basis()
        assert k.cols + m.rank() == m.cols
        # kernel vectors are killed
        if k.cols:
            assert (m @ k).is_zero()


def test_image_basis_of_shift_minus_identity():
    # cyclic permutation minus identity on F_3^3 has rank 2
    t = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    m = PrimeFieldMatrix(3, t - np.eye(3, dtype=int))
    assert m.image_basis().cols == 2


def test_solve_membership():
    rng = np.random.default_rng(23)
    for _ in range(60):
        p = int(rng.choice([2, 3, 5, 7]))
        a = rng.integers(0, p, (rng.integers(1, 7), rng.integers(1, 7)))
        m = PrimeFieldMatrix(p, a)
        x = rng.integers(0, p, m.cols)
        b = np.mod(a @ x, p)
        sol = m.solve(b)
        assert sol is not None
        assert np.array_equal(np.mod(a @ sol, p), b)
        # a vector outside the image must be rejected
        img = m.image_basis()
        if img.cols < m.rows:
            outside = rng.integers(0, p, m.rows)
            joint = rank_mod(np.concatenate([img.a, outside.reshape(-1, 1)], axis=1), p)
            if joint > img.cols:
                assert m.solve(outside) is None


def test_canonical_basis_property():
    rng = np.random.default_rng(31)
    for _ in range(50):
        p = int(rng.choice([2, 3, 5, 7]))
        n, d = 6, 3
        basis = rng.integers(0, p, (n, d))
        while rank_mod(basis, p) < d:
            basis = rng.integers(0, p, (n, d))
        # two random generating sets of the same subspace
        c1 = rng.integers(0, p, (d, d + 2))
        c2 = rng.integers(0, p, (d, d + 2))
        while rank_mod(c1, p) < d or rank_mod(c2, p) < d:
            c1 = rng.integers(0, p, (d, d + 2))
            c2 = rng.integers(0, p, (d, d + 2))
        e1 = column_echelon_mod(np.mod(basis @ c1, p), p)
        e2 = column_echelon_mod(np.mod(basis @ c2, p), p)
        assert np.array_equal(e1, e2)


def test_subquotient_dim():
    p = 5
    z = np.eye(3, dtype=int)[:, :2]
    b = np.eye(3, dtype=int)[:, :1]
    assert Subquotient(z, b, p).dim == 1
    bad = np.eye(3, dtype=int)[:, 2:]
    with pytest.raises(InvariantError, match="B is not contained in the span of Z"):
        Subquotient(z, bad, p)


def test_subquotient_coordinates_roundtrip():
    rng = np.random.default_rng(41)
    p = 7
    z = rng.integers(0, p, (8, 5))
    while rank_mod(z, p) < 5:
        z = rng.integers(0, p, (8, 5))
    b = np.mod(z @ rng.integers(0, p, (5, 2)), p)
    sub = Subquotient(z, b, p)
    assert sub.dim == 5 - rank_mod(b, p)
    v = np.mod(z @ rng.integers(0, p, 5), p)
    coords = sub.coordinates(v)
    # the lift differs from v by an element of span(B)
    diff = np.mod(v - sub.lift(coords), p)
    assert rank_mod(np.concatenate([sub.b, diff.reshape(-1, 1)], axis=1), p) == sub.b.shape[1]


def test_factored_solve_many():
    p = 3
    a = np.array([[1, 2, 0], [0, 1, 1]])
    fs = FactoredSolve(a, p)
    rhs = np.mod(a @ np.array([[1, 0], [2, 1], [0, 2]]), p)
    sol = fs.solve_many(rhs)
    assert np.array_equal(np.mod(a @ sol, p), rhs)


def test_sparse_rank_matches_dense():
    rng = np.random.default_rng(53)
    for _ in range(40):
        p = int(rng.choice([2, 3, 5]))
        a = rng.integers(0, p, (rng.integers(1, 10), rng.integers(1, 10)))
        cols = []
        for j in range(a.shape[1]):
            cols.append({i: int(a[i, j]) for i in range(a.shape[0]) if a[i, j]})
        assert sparse_rank(cols, p) == rank_mod(a, p)


def test_immutability():
    m = PrimeFieldMatrix.identity(3, 2)
    with pytest.raises(Exception):
        m.a[0, 0] = 2
    with pytest.raises(AttributeError):
        m.p = 5


def test_is_prime():
    assert [q for q in range(14) if is_prime(q)] == [2, 3, 5, 7, 11, 13]


# -- the blocked kernel against a per-pivot reference -------------------------


def reference_rref(a, p):
    """Textbook Gauss-Jordan over F_p, one pivot at a time."""
    r = np.mod(np.array(a, dtype=np.int64), p)
    m, n = r.shape
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        i = row + int(nz[0])
        r[[row, i]] = r[[i, row]]
        r[row] = (r[row] * pow(int(r[row, col]), p - 2, p)) % p
        for other in range(m):
            if other != row and r[other, col]:
                r[other] = (r[other] - r[other, col] * r[row]) % p
        pivots.append(col)
        row += 1
    return r, tuple(pivots)


def reference_kernel(a, p):
    r, pivots = reference_rref(a, p)
    n = r.shape[1]
    free = [c for c in range(n) if c not in pivots]
    k = np.zeros((n, len(free)), dtype=np.int64)
    for j, f in enumerate(free):
        k[f, j] = 1
        for i, c in enumerate(pivots):
            k[c, j] = (-r[i, f]) % p
    return k


def reference_solution(a, b, p):
    """The solution of a·x = b with free variables 0, or None."""
    n = a.shape[1]
    r, pivots = reference_rref(np.concatenate([a, b.reshape(-1, 1)], axis=1), p)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = r[i, n]
    return x


# tiny shapes and shapes one to three panels wide or tall
DIMS = st.one_of(st.integers(0, 6), st.integers(PANEL - 4, 3 * PANEL + 5))


@st.composite
def matrices(draw):
    """A random matrix over F_p of chosen shape and rank, sparse or dense,
    with some zero rows and columns."""
    p = draw(st.sampled_from([2, 3, 5, 251]))
    m, n = draw(DIMS), draw(DIMS)
    rank = draw(st.integers(0, min(m, n)))
    density = draw(st.sampled_from([1.0, 0.2, 0.02]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = rng.integers(0, p, (m, rank)) * (rng.random((m, rank)) < density)
    a = (left @ rng.integers(0, p, (rank, n))) % p
    a[rng.random(m) < 0.1] = 0
    a[:, rng.random(n) < 0.1] = 0
    return p, a, rng


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_blocked_rref_matches_reference(case):
    p, a, _ = case
    r, pivots = rref_mod(a, p)
    want_r, want_pivots = reference_rref(a, p)
    assert pivots == want_pivots
    assert r.dtype == np.int64 and np.array_equal(r, want_r)


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_blocked_kernel_and_echelon_match_reference(case):
    p, a, _ = case
    assert np.array_equal(kernel_mod(a, p), column_echelon_mod(reference_kernel(a, p), p))
    r, pivots = reference_rref(a.T, p)
    assert np.array_equal(column_echelon_mod(a, p), r[: len(pivots)].T)


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_factored_solve_matches_reference(case):
    p, a, rng = case
    m, n = a.shape
    fs = FactoredSolve(a, p)
    assert fs.pivots == reference_rref(a, p)[1]
    inside = np.mod(a @ rng.integers(0, p, (n, 3)), p)
    anywhere = rng.integers(0, p, (m, 2))
    columns = np.concatenate([inside, anywhere], axis=1)
    solutions = []
    for j in range(columns.shape[1]):
        got, want = fs.solve(columns[:, j]), reference_solution(a, columns[:, j], p)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.dtype == np.int64 and np.array_equal(got, want)
        solutions.append(got)
    many = fs.solve_many(inside)
    assert np.array_equal(many, np.stack(solutions[:3], axis=1).reshape(n, 3))
    if any(s is None for s in solutions[3:]):
        assert fs.solve_many(columns) is None


def test_matmul_mod_exact_at_251():
    p = 251
    rng = np.random.default_rng(7)
    a = rng.integers(0, p, (40, 700))
    b = rng.integers(0, p, (700, 30))
    exact = np.array(
        [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
    )
    got = matmul_mod(a, b, p)
    assert np.array_equal(got, exact)
    a[:, :] = p - 1  # the largest partial sums
    assert np.array_equal(matmul_mod(a, b, p), np.mod(a.astype(object) @ b.astype(object), p))


def test_matmul_mod_refuses_inexact_products():
    p = 251
    inner = -(-(2**53) // (p - 1) ** 2)  # the first inner dimension past the bound
    # zero-stride views: the shape is checked before anything is allocated
    a = np.broadcast_to(np.float64(1), (1, inner))
    b = np.broadcast_to(np.float64(1), (inner, 1))
    with pytest.raises(ValueError):
        matmul_mod(a, b, p)
    # the bound scales with p: the same inner dimension is fine over F_2
    assert inner * (2 - 1) ** 2 < 2**53


def test_solve_many_reports_inconsistent_column():
    p = 5
    a = np.array([[1, 0], [0, 1], [0, 0]])
    fs = FactoredSolve(a, p)
    good = np.array([[1, 2], [3, 4], [0, 0]])
    assert np.array_equal(fs.solve_many(good), good[:2])
    bad = np.array([[1, 2], [3, 4], [0, 1]])
    assert fs.solve_many(bad) is None
    assert fs.solve(bad[:, 0]) is not None and fs.solve(bad[:, 1]) is None


def test_empty_shapes():
    for shape in ((0, 0), (0, 4), (4, 0)):
        a = np.zeros(shape, dtype=np.int64)
        r, pivots = rref_mod(a, 3)
        assert r.shape == shape and pivots == ()
        assert kernel_mod(a, 3).shape == (shape[1], shape[1])
        assert column_echelon_mod(a, 3).shape == (shape[0], 0)
        fs = FactoredSolve(a, 3)
        assert fs.rank == 0
        assert np.array_equal(fs.solve(np.zeros(shape[0], dtype=np.int64)), np.zeros(shape[1]))
        assert fs.solve_many(np.zeros((shape[0], 2), dtype=np.int64)).shape == (shape[1], 2)
