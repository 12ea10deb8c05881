"""Finite-dimensional modules over F_p[Z/p].

The group ring F_p[Z/p] = F_p[t]/(t-1)^p has exactly p indecomposable
modules up to isomorphism: the quotients F_p[t]/(t-1)^d for d = 1..p
(d = 1 trivial, d = p free).  A module is decomposed by the ranks of the
powers of (t - 1), and the program reads its cyclic-group cohomology off
the decomposition (`Decomposition.group_cohomology_dim`).
`group_cohomology` is the reference presentation: the 2-periodic
kernel/image subquotients of (t - 1) and the norm N = 1 + t + ... + t^(p-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError
from .linalg import Subquotient, _is_int, check_modulus, kernel_mod, matmul_mod, rank_mod


def _power(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e mod p for a square matrix a, by repeated squaring."""
    out = np.eye(a.shape[0])
    while e:
        if e & 1:
            out = matmul_mod(out, a, p)
        a = matmul_mod(a, a, p)
        e >>= 1
    return out.astype(np.int64)


class GModule:
    """An F_p vector space with the action of a chosen generator t of Z/p.

    `action` is stored as a read-only int64 array with entries in [0, p).
    The constructor checks action^p = 1.  That is equivalent to
    (action - 1)^p = 0 over F_p: action commutes with 1 and p divides the
    binomial coefficient C(p, k) for 0 < k < p, so
    (action - 1)^p = action^p - 1 in characteristic p.  `decompose` keeps
    its result on the module, so each module is decomposed once.
    """

    __slots__ = ("p", "dim", "action", "_decomposition")

    def __init__(self, p: int, action):
        p = check_modulus(p)
        action = np.mod(np.asarray(action, dtype=np.int64), p)
        if action.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {action.shape}")
        if action.shape[0] != action.shape[1]:
            raise ValueError("action matrix must be square")
        if not np.array_equal(_power(action, p, p), np.eye(len(action), dtype=np.int64)):
            raise ValueError("action does not have order dividing p")
        action.setflags(write=False)
        self.p = p
        self.dim = len(action)
        self.action = action
        self._decomposition = None

    def __repr__(self):
        return f"GModule(p={self.p}, dim={self.dim})"

    def __eq__(self, other):
        return (
            isinstance(other, GModule)
            and self.p == other.p
            and np.array_equal(self.action, other.action)
        )

    def norm_matrix(self) -> np.ndarray:
        """N = 1 + t + ... + t^(p-1) as a matrix."""
        power = acc = np.eye(self.dim)
        for _ in range(self.p - 1):
            power = matmul_mod(power, self.action, self.p)
            acc = acc + power
        return np.mod(acc, self.p).astype(np.int64)

    def shifted(self) -> np.ndarray:
        """t - 1."""
        return np.mod(self.action - np.eye(self.dim, dtype=np.int64), self.p)

    def dual(self) -> "GModule":
        """Dual module: t acts by (t^-1) transposed."""
        return GModule(self.p, _power(self.action, self.p - 1, self.p).T)

    def to_json(self) -> dict:
        return {"p": self.p, "dim": self.dim, "action": self.action.tolist()}

    @classmethod
    def from_json(cls, data) -> "GModule":
        """The module of {"p": prime, "dim": d, "action": d rows of d integers}.

        Raises ValueError, naming the field at fault, on anything else.
        """
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, not {data!r}")
        for name in ("p", "dim", "action"):
            if name not in data:
                raise ValueError(f"missing field {name!r}")
        for name in ("p", "dim"):
            if not _is_int(data[name]):
                raise ValueError(f"{name!r} must be an integer, not {data[name]!r}")
        p, dim, action = data["p"], data["dim"], data["action"]
        if not isinstance(action, list) or not all(
            isinstance(row, list) and all(_is_int(x) for x in row) for row in action
        ):
            raise ValueError("'action' must be a list of lists of integers")
        if len(action) != dim or any(len(row) != dim for row in action):
            raise ValueError(f"'action' must have {dim} rows of {dim} entries, as 'dim' says")
        try:
            check_modulus(p)
        except ValueError as exc:
            raise ValueError(f"'p': {exc}") from exc
        entries = np.array([[x % p for x in row] for row in action], dtype=np.int64)
        try:
            return cls(p, entries.reshape(dim, dim))
        except ValueError as exc:
            raise ValueError(f"'action': {exc}") from exc


@dataclass(frozen=True)
class Decomposition:
    """Multiplicities of the indecomposable summands of size d = 1..p."""

    p: int
    multiplicities: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        check_modulus(self.p)
        clean = {d: m for d, m in sorted(self.multiplicities.items()) if m}
        object.__setattr__(self, "multiplicities", clean)
        for d, m in clean.items():
            if not (1 <= d <= self.p) or m < 0:
                raise ValueError(f"invalid summand V_{d} x {m} for p={self.p}")

    @property
    def dim(self) -> int:
        return sum(d * m for d, m in self.multiplicities.items())

    def count(self, d: int) -> int:
        return self.multiplicities.get(d, 0)

    def is_nice(self) -> bool:
        """Only trivial (d=1) and free (d=p) summands occur."""
        return all(d in (1, self.p) for d in self.multiplicities)

    def group_cohomology_dim(self, k: int) -> int:
        """dim H^k(Z/p, M): the number of summands for k = 0, and of
        summands V_d with d < p for k > 0.

        On V_d = F_p[t]/(t-1)^d, ker(t-1) is spanned by (t-1)^(d-1), so it
        is 1-dimensional.  N = (t-1)^(p-1) over F_p, so N vanishes on V_d
        for d < p: there H^odd = ker N / im(t-1) and H^even>0 = ker(t-1) /
        im N are 1-dimensional.  V_p is free, so H^k(V_p) = 0 for k > 0.
        """
        if k < 0:
            raise ValueError("degree must be nonnegative")
        return sum(m for d, m in self.multiplicities.items() if k == 0 or d < self.p)

    def to_json(self) -> dict:
        return {str(d): m for d, m in self.multiplicities.items()}

    def __str__(self):
        if not self.multiplicities:
            return "0"
        return " + ".join(f"{m}*V_{d}" for d, m in self.multiplicities.items())


def decompose(module: GModule) -> Decomposition:
    """Multiset of indecomposable summands, from ranks of (t-1)^d.

    With r_d = rank((t-1)^d), the number of summands of size d is
    r_{d-1} - 2 r_d + r_{d+1} for d < p and r_{p-1} - r_p for d = p.
    A negative count means the action matrix was corrupted.  The result is
    computed once per module and kept on it: the profile and the E_2 check
    of the page tower decompose the same cohomology modules.
    """
    if module._decomposition is not None:
        return module._decomposition
    p = module.p
    shifted = module.shifted()
    ranks = [module.dim]
    power = np.eye(module.dim)
    for _ in range(p):
        power = matmul_mod(power, shifted, p)
        ranks.append(rank_mod(power, p))
    mult = {}
    for d in range(1, p):
        m = ranks[d - 1] - 2 * ranks[d] + ranks[d + 1]
        if m < 0:
            raise ValueError(f"negative multiplicity for V_{d}: corrupted action")
        if m:
            mult[d] = m
    m_p = ranks[p - 1] - ranks[p]
    if m_p < 0:
        raise ValueError("negative multiplicity for the free summand")
    if m_p:
        mult[p] = m_p
    dec = Decomposition(p, mult)
    if dec.dim != module.dim:
        raise ValueError("multiplicities do not add up to the module dimension")
    module._decomposition = dec
    return dec


def is_nice(module: GModule) -> bool:
    """True iff the module is a sum of trivial and free summands only."""
    return decompose(module).is_nice()


@dataclass(frozen=True)
class GroupCohomology:
    """H^k(Z/p, M) presented as a canonical subquotient of M."""

    degree: int
    subquotient: Subquotient

    @property
    def dim(self) -> int:
        return self.subquotient.dim


def group_cohomology(module: GModule, k: int) -> GroupCohomology:
    """H^k(Z/p, M) from the 2-periodic free resolution of the trivial module.

    H^0 = ker(t-1); for k odd, ker(N)/im(t-1); for even k > 0,
    ker(t-1)/im(N).  Degrees of equal parity give identical presentations.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    p = module.p
    shifted = module.shifted()
    norm = module.norm_matrix()
    zero = np.zeros((module.dim, 0), dtype=np.int64)
    if k == 0:
        sub = Subquotient(kernel_mod(shifted, p), zero, p)
    elif k % 2 == 1:
        sub = Subquotient(kernel_mod(norm, p), shifted, p)
    else:
        sub = Subquotient(kernel_mod(shifted, p), norm, p)
    return GroupCohomology(k, sub)


def check_dual_pairing(module: GModule, other: GModule, pairing) -> bool:
    """True iff `pairing` is a non-degenerate Z/p-equivariant bilinear form.

    Equivariance means pairing(t x, t y) = pairing(x, y), i.e.
    T^t . P . T' = P.  A passing pairing forces the two modules to have
    equal decompositions, which is checked.
    """
    if module.p != other.p:
        raise ValueError("modules over different fields")
    p = module.p
    pairing = np.mod(np.asarray(pairing, dtype=np.int64), p)
    if pairing.shape != (module.dim, other.dim):
        raise ValueError(
            f"pairing shape {pairing.shape} does not match module dims "
            f"({module.dim}, {other.dim})"
        )
    moved = matmul_mod(matmul_mod(module.action.T, pairing, p), other.action, p)
    if not np.array_equal(moved, pairing):
        return False
    if module.dim != other.dim:
        return False
    if rank_mod(pairing, p) != module.dim:
        return False
    if decompose(module) != decompose(other):
        raise InvariantError("gmodule.dual_pairing", "dual modules decompose differently")
    return True


# -- constructors for standard modules --------------------------------


def indecomposable_action(p: int, d: int) -> np.ndarray:
    """Generator matrix on F_p[t]/(t-1)^d in the basis (t-1)^j: unipotent shift."""
    if not (1 <= d <= p):
        raise ValueError(f"summand size {d} out of range 1..{p}")
    a = np.eye(d, dtype=np.int64)
    for j in range(d - 1):
        a[j + 1, j] = 1
    return a


def module_from_multiplicities(p: int, multiplicities: dict[int, int]) -> GModule:
    """Block-diagonal module with the given summand multiset."""
    blocks = []
    for d, m in Decomposition(p, multiplicities).multiplicities.items():
        blocks.extend([indecomposable_action(p, d)] * m)
    n = sum(b.shape[0] for b in blocks)
    a = np.eye(n, dtype=np.int64)
    at = 0
    for b in blocks:
        k = b.shape[0]
        a[at : at + k, at : at + k] = b
        at += k
    return GModule(p, a)


# -- cohomology profiles ------------------------------------------------


class CohomologyProfile:
    """Per-degree cohomology modules, each held as its decomposition.

    The Betti number of degree i is the dimension of H^i, and its t-number
    t^i = dim H^2(Z/p, H^i) is read off the decomposition
    (`Decomposition.group_cohomology_dim`).
    """

    def __init__(self, p: int, decompositions: list[Decomposition]):
        self.p = check_modulus(p)
        if any(dec.p != p for dec in decompositions):
            raise ValueError("mixed moduli in profile")
        self.decompositions: tuple[Decomposition, ...] = tuple(decompositions)

    @classmethod
    def from_multiplicities(cls, p: int, per_degree: list[dict[int, int]]):
        return cls(p, [Decomposition(p, m) for m in per_degree])

    def __len__(self):
        return len(self.decompositions)

    @property
    def betti(self) -> list[int]:
        return [dec.dim for dec in self.decompositions]

    @property
    def t_numbers(self) -> list[int]:
        return [self.t(i) for i in range(len(self))]

    def t(self, i: int) -> int:
        return self.decompositions[i].group_cohomology_dim(2) if 0 <= i < len(self) else 0

    def is_nice(self) -> bool:
        return all(dec.is_nice() for dec in self.decompositions)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "degrees": [
                {"dim": dec.dim, "decomposition": dec.to_json(), "t": self.t(i)}
                for i, dec in enumerate(self.decompositions)
            ],
        }


def chi_t(profile: CohomologyProfile) -> int:
    """Alternating sum of the t-numbers."""
    return sum((-1) ** i * t for i, t in enumerate(profile.t_numbers))


def t_sum(profile: CohomologyProfile) -> int:
    """Plain sum of the t-numbers."""
    return sum(profile.t_numbers)


def t_tail_sum(profile: CohomologyProfile, k: int) -> int:
    """Sum of t-numbers in degrees >= k."""
    return sum(t for i, t in enumerate(profile.t_numbers) if i >= k)
