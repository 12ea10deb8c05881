"""Single-vector views of `linalg.Subquotient` (and, for `lift`,
`complexes.CohomologyBasis`) that only tests use."""

import numpy as np

from swanss.linalg import matmul_mod, rank_mod


def coordinates(sub, v: np.ndarray) -> np.ndarray:
    """Coordinates of [v] in the canonical representative basis."""
    return sub.coordinates_many(np.reshape(v, (-1, 1)))[:, 0]


def lift(sub, coords: np.ndarray) -> np.ndarray:
    """The combination of the representatives with the given coordinates."""
    coords = np.mod(np.asarray(coords, dtype=np.int64).reshape(sub.dim), sub.p)
    return matmul_mod(sub.reps, coords, sub.p).astype(np.int64)


def preimage(sub, b: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """The solution w of b·w = y with free variables 0, read off the one
    factorization the subquotient of b holds, or None if y is outside im b.
    Its pivots are the columns of b independent of those before them."""
    lead = sub._lead_rows(np.reshape(y, (-1, 1)))
    if lead is None:
        return None
    sol = matmul_mod(sub._transform, lead, sub.p)[:, 0]
    if np.count_nonzero(sol[sub._rank_b :]):
        return None
    kept = [j for j in range(b.shape[1])
            if rank_mod(b[:, : j + 1], sub.p) > rank_mod(b[:, :j], sub.p)]
    w = np.zeros(b.shape[1], dtype=np.int64)
    w[kept] = sol[: sub._rank_b]
    return w
