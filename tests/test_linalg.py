import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swanss import linalg
from swanss.errors import InvariantError
from swanss.gmodule import GModule
from swanss.linalg import (
    FactoredSolve,
    Subquotient,
    check_modulus,
    column_echelon_mod,
    is_prime,
    kernel_mod,
    matmul_mod,
    rank_mod,
    rref_mod,
    sparse_rank,
)
from sparse_reference import csc_of
from subquotient_helpers import coordinates, lift, preimage


def test_fieldp_validation():
    assert check_modulus(2) == 2
    assert check_modulus(251) == 251
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        check_modulus(4)
    with pytest.raises(ValueError, match="modulus 1 is not prime"):
        check_modulus(1)
    # prime but beyond the supported bound
    with pytest.raises(ValueError, match="modulus 257 exceeds supported bound 251"):
        check_modulus(257)


def test_rref_empty_matrix():
    a = np.zeros((0, 0), dtype=np.int64)
    r, pivots = rref_mod(a, 5)
    assert pivots == ()
    assert rank_mod(a, 5) == 0


def test_rref_identity():
    a = np.eye(3, dtype=np.int64)
    r, pivots = rref_mod(a, 5)
    assert np.array_equal(r, a)
    assert pivots == (0, 1, 2)


def test_rref_rank_one_over_f3():
    # det(1,2;2,1) = -3 = 0 mod 3, so the rank drops to 1
    assert rank_mod(np.array([[1, 2], [2, 1]]), 3) == 1


def test_rref_idempotent():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5, 7):
        for _ in range(20):
            a = rng.integers(0, p, (rng.integers(1, 7), rng.integers(1, 7)))
            r, _ = rref_mod(a, p)
            r2, _ = rref_mod(r, p)
            assert np.array_equal(r, r2)


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = int(rng.choice([2, 3, 5, 7]))
        a = rng.integers(0, p, (rng.integers(1, 9), rng.integers(1, 9)))
        assert rank_mod(a, p) == rank_mod(a.T, p)


def test_kernel_of_zero_map():
    assert kernel_mod(np.zeros((1, 2), dtype=np.int64), 3).shape == (2, 2)


def test_kernel_image_rank_nullity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = int(rng.choice([2, 3, 5, 7]))
        a = rng.integers(0, p, (rng.integers(1, 8), rng.integers(1, 8)))
        k = kernel_mod(a, p)
        assert k.shape[1] + rank_mod(a, p) == a.shape[1]
        # kernel vectors are killed
        if k.shape[1]:
            assert not matmul_mod(a, k, p).any()


def test_image_basis_of_shift_minus_identity():
    # cyclic permutation minus identity on F_3^3 has rank 2
    t = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert column_echelon_mod(t - np.eye(3, dtype=int), 3).shape[1] == 2


def test_solve_membership():
    rng = np.random.default_rng(23)
    for _ in range(60):
        p = int(rng.choice([2, 3, 5, 7]))
        a = rng.integers(0, p, (rng.integers(1, 7), rng.integers(1, 7)))
        fs = FactoredSolve(a, p)
        x = rng.integers(0, p, a.shape[1])
        b = np.mod(a @ x, p)
        sol = fs.solve(b)
        assert sol is not None
        assert np.array_equal(np.mod(a @ sol, p), b)
        # a vector outside the image must be rejected
        img = column_echelon_mod(a, p)
        if img.shape[1] < a.shape[0]:
            outside = rng.integers(0, p, a.shape[0])
            joint = rank_mod(np.concatenate([img, outside.reshape(-1, 1)], axis=1), p)
            if joint > img.shape[1]:
                assert fs.solve(outside) is None


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
    z = column_echelon_mod(z, p)
    b = np.mod(z @ rng.integers(0, p, (5, 2)), p)
    sub = Subquotient(z, b, p)
    assert sub.dim == 5 - rank_mod(b, p)
    v = np.mod(z @ rng.integers(0, p, 5), p)
    coords = coordinates(sub, v)
    # the lift differs from v by an element of span(B)
    diff = np.mod(v - lift(sub, coords), p)
    assert rank_mod(np.concatenate([sub.b, diff.reshape(-1, 1)], axis=1), p) == sub.b.shape[1]


@pytest.mark.parametrize("z", [
    np.array([[0, 1], [1, 0], [0, 0]]),
    np.array([[2, 0], [0, 1], [1, 1]]),
    np.array([[1, 1], [0, 1], [0, 0]]),
    np.array([[1, 0], [0, 0], [0, 0]]),
    np.zeros((0, 1), dtype=int),
], ids=["leads-out-of-order", "lead-not-one", "not-reduced", "zero-column", "no-rows"])
def test_subquotient_refuses_a_non_canonical_z(z):
    p = 5
    b = np.zeros((z.shape[0], 0), dtype=int)
    with pytest.raises(InvariantError, match="canonical column-echelon") as err:
        Subquotient(z, b, p)
    assert err.value.stage == "linalg.subquotient"


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
        assert sparse_rank(csc_of(a, p), p).rank == rank_mod(a, p)


def _reduced(red, n):
    """{column: (R column, V column)} of every pivot of the reduction `red`
    (V ends at its own column) and {column: V column} of its kernel."""
    pivots = [red.pivot(row) for row in red.pivot_rows.tolist()]
    return {max(v): (r, v) for r, v in pivots}, {max(v): v for v in red.kernel}


def test_sparse_rank_reduces_to_distinct_pivot_rows():
    rng = np.random.default_rng(59)
    for _ in range(60):
        p = int(rng.choice([2, 3, 5, 7]))
        m, n = int(rng.integers(1, 12)), int(rng.integers(2, 12))
        a = rng.integers(0, p, (m, n)) * (rng.random((m, n)) < 0.4)
        # column j is a combination of the columns before it
        j = int(rng.integers(1, n))
        a[:, j] = np.mod(a[:, :j] @ rng.integers(0, p, j), p)
        rank = rank_mod(a, p)
        red = sparse_rank(csc_of(a, p), p, record=True)
        assert red.rank == rank
        lows = red.pivot_rows.tolist()
        assert len(lows) == len(set(lows)) == rank
        pivots, kernel = _reduced(red, n)
        assert set(pivots) | set(kernel) == set(range(n)) and j in kernel
        # each R column is nonzero, ends at its pivot row, and they span
        # what the input columns span
        reduced = np.zeros((m, rank), dtype=np.int64)
        for k, row in enumerate(lows):
            r, _ = red.pivot(row)
            assert max(r) == row and all(v % p for v in r.values())
            reduced[list(r), k] = list(r.values())
        assert rank_mod(reduced, p) == rank_mod(np.concatenate([a, reduced], axis=1), p) == rank
        # clearing a column in the span of the earlier ones keeps the rank
        red = sparse_rank(csc_of(a, p), p, np.array([j]), record=True)
        assert red.rank == rank
        assert j not in _reduced(red, n)[1] and len(red.kernel) == n - rank - 1


def test_sparse_rank_records_its_column_operations():
    rng = np.random.default_rng(61)
    for _ in range(60):
        p = int(rng.choice([2, 3, 5, 7]))
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        a = rng.integers(0, p, (m, n)) * (rng.random((m, n)) < 0.4)
        red = sparse_rank(csc_of(a, p), p, record=True)
        assert red.rank == rank_mod(a, p)
        pivots, kernel = _reduced(red, n)
        r, v = np.zeros((m, n), dtype=np.int64), np.zeros((n, n), dtype=np.int64)
        for j, (rj, vj) in pivots.items():
            r[list(rj), j] = list(rj.values())
            v[list(vj), j] = list(vj.values())
        for j, vj in kernel.items():
            v[list(vj), j] = list(vj.values())
        # R = A·V with V unit upper triangular: the zero columns of R give ker A
        assert np.array_equal(np.mod(a @ v, p), r)
        assert np.array_equal(np.tril(v), np.eye(n, dtype=np.int64))
        assert len(kernel) == n - rank_mod(a, p)


def test_kernel_takes_one_elimination(monkeypatch):
    calls = []
    eliminate = linalg._eliminate

    def counted(*args):
        calls.append(args[0].shape)
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    rng = np.random.default_rng(61)
    a = rng.integers(0, 5, (6, 9))
    a[:, 4] = np.mod(a[:, 0] + 2 * a[:, 1], 5)
    k = kernel_mod(a, 5)
    assert len(calls) == 1
    assert k.shape == (9, 9 - rank_mod(a, 5))
    assert not np.mod(a @ k, 5).any()


def test_immutability():
    entries = np.eye(2, dtype=np.int64)
    m = GModule(3, entries)
    with pytest.raises(ValueError):
        m.action[0, 0] = 2
    # the module holds its own copy of the entries
    entries[0, 0] = 2
    assert np.array_equal(m.action, np.eye(2))


def test_is_prime():
    assert [q for q in range(14) if is_prime(q)] == [2, 3, 5, 7, 11, 13]


# -- the kernel against a textbook reference ----------------------------------


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


# tiny shapes, and shapes of 28 to 101 rows or columns
DIMS = st.one_of(st.integers(0, 6), st.integers(28, 101))


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
def test_rref_matches_reference(case):
    p, a, _ = case
    r, pivots = rref_mod(a, p)
    want_r, want_pivots = reference_rref(a, p)
    assert pivots == want_pivots
    assert r.dtype == np.int64 and np.array_equal(r, want_r)


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_kernel_and_echelon_match_reference(case):
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


# -- Subquotient against the three-elimination construction -------------------


class ReferenceSubquotient:
    """span(Z)/span(B) as it was built from three eliminations: B brought
    to its column-echelon basis, representatives from the rref of [B | Z],
    and coordinates from a factorization of [B | reps]."""

    def __init__(self, z, b, p):
        self.b = column_echelon_mod(b, p)
        bdim = self.b.shape[1]
        _, pivots = rref_mod(np.concatenate([self.b, z], axis=1), p)
        cols = [c - bdim for c in pivots if c >= bdim]
        self.reps = np.mod(z[:, cols], p)
        self.dim = len(cols)
        if self.dim != z.shape[1] - bdim:
            raise InvariantError("linalg.subquotient", "B is not contained in the span of Z")
        self.solver = FactoredSolve(np.concatenate([self.b, self.reps], axis=1), p)

    def coordinates_many(self, vs):
        return self.solver.solve_many(vs)[self.b.shape[1] :]


@st.composite
def subquotients(draw):
    """p, a canonical basis z of a random subspace Z and generators b of a
    subspace of it (rank-deficient, empty or zero), with a random source."""
    p = draw(st.sampled_from([2, 3, 5, 251]))
    n = draw(st.one_of(st.integers(0, 6), st.integers(28, 40)))
    dz = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = np.zeros((n, 0), dtype=np.int64)
    while z.shape[1] < dz:
        z = column_echelon_mod(rng.integers(0, p, (n, dz)), p)
    rank = draw(st.integers(0, dz))
    nb = draw(st.integers(rank, rank + 4))
    left = z @ rng.integers(0, p, (dz, rank))
    b = np.mod(left @ rng.integers(0, p, (rank, nb)), p)
    if draw(st.booleans()):
        b[:, rng.random(nb) < 0.3] = 0
    return p, z, b, rng


def _outside(a, p):
    """A unit vector outside the column span of `a`, or None."""
    n = a.shape[0]
    for i in range(n):
        e = np.eye(n, dtype=np.int64)[:, i : i + 1]
        if rank_mod(np.concatenate([a, e], axis=1), p) > rank_mod(a, p):
            return e[:, 0]
    return None


@settings(max_examples=80, deadline=None)
@given(subquotients())
def test_subquotient_matches_three_elimination_reference(case):
    p, z, b, rng = case
    sub, ref = Subquotient(z, b, p), ReferenceSubquotient(z, b, p)
    assert sub.dim == ref.dim
    assert sub.reps.dtype == np.int64 and np.array_equal(sub.reps, ref.reps)
    # sub.b is a basis of span(b)
    rank_b = rank_mod(b, p)
    assert sub.b.shape == (z.shape[0], rank_b)
    assert rank_mod(sub.b, p) == rank_mod(np.concatenate([sub.b, b], axis=1), p) == rank_b
    vs = np.mod(z @ rng.integers(0, p, (z.shape[1], 4)), p)
    assert np.array_equal(sub.coordinates_many(vs), ref.coordinates_many(vs))
    assert np.array_equal(coordinates(sub, vs[:, 0]), ref.coordinates_many(vs[:, :1])[:, 0])
    # preimage is the solve against b: in im b, in span Z outside im b, outside span Z
    ys = [np.mod(b @ rng.integers(0, p, b.shape[1]), p), np.zeros(z.shape[0], dtype=np.int64)]
    if sub.dim:
        ys.append(np.mod(ys[0] + sub.reps[:, -1], p))
    outside = _outside(z, p)
    if outside is not None:
        ys.append(outside)
    solver = FactoredSolve(b, p)
    for y in ys:
        got, want = preimage(sub, b, y), solver.solve(y)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.dtype == np.int64 and np.array_equal(got, want)
    if sub.dim:
        assert preimage(sub, b, ys[2]) is None
    if outside is not None:
        assert preimage(sub, b, outside) is None
        with pytest.raises(ValueError):
            coordinates(sub, outside)
        # B outside span Z is refused
        bad = np.concatenate([b, outside.reshape(-1, 1)], axis=1)
        with pytest.raises(InvariantError, match="B is not contained in the span of Z") as err:
            Subquotient(z, bad, p)
        assert err.value.stage == "linalg.subquotient"
