"""Finite-dimensional modules over F_p[Z/p].

The group ring F_p[Z/p] = F_p[t]/(t-1)^p has exactly p indecomposable
modules up to isomorphism: the quotients F_p[t]/(t-1)^d for d = 1..p
(d = 1 trivial, d = p free).  A module is decomposed by the ranks of the
powers of (t - 1); cyclic-group cohomology is computed from the
2-periodic kernel/image subquotients of (t - 1) and the norm
N = 1 + t + ... + t^(p-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError
from .linalg import FieldP, PrimeFieldMatrix, Subquotient, _is_int


class GModule:
    """An F_p vector space with the action of a chosen generator t of Z/p.

    The generator matrix must satisfy action^p = 1, equivalently
    (action - 1)^p = 0 over F_p; both are checked at construction.
    """

    __slots__ = ("field", "dim", "action")

    def __init__(self, p: int | FieldP, action: PrimeFieldMatrix | list):
        fieldp = p if isinstance(p, FieldP) else FieldP(p)
        if not isinstance(action, PrimeFieldMatrix):
            action = PrimeFieldMatrix(fieldp, action)
        if action.rows != action.cols:
            raise ValueError("action matrix must be square")
        pp = fieldp.p
        ident = PrimeFieldMatrix.identity(fieldp, action.rows)
        if action ** pp != ident:
            raise ValueError("action does not have order dividing p")
        if not ((action - ident) ** pp).is_zero():
            raise ValueError("action - 1 is not nilpotent of order p")
        self.field = fieldp
        self.dim = action.rows
        self.action = action

    @property
    def p(self) -> int:
        return self.field.p

    def __repr__(self):
        return f"GModule(p={self.p}, dim={self.dim})"

    def __eq__(self, other):
        return (
            isinstance(other, GModule)
            and self.p == other.p
            and self.action == other.action
        )

    def norm_matrix(self) -> PrimeFieldMatrix:
        """N = 1 + t + ... + t^(p-1) as a matrix."""
        acc = PrimeFieldMatrix.identity(self.field, self.dim)
        power = PrimeFieldMatrix.identity(self.field, self.dim)
        for _ in range(self.p - 1):
            power = power @ self.action
            acc = acc + power
        return acc

    def shifted(self) -> PrimeFieldMatrix:
        """t - 1."""
        return self.action - PrimeFieldMatrix.identity(self.field, self.dim)

    def dual(self) -> "GModule":
        """Dual module: t acts by (t^-1) transposed."""
        inv = self.action ** (self.p - 1)
        return GModule(self.field, inv.T)

    def to_json(self) -> dict:
        return {"p": self.p, "dim": self.dim, "action": self.action.a.tolist()}

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
            fieldp = FieldP(p)
        except ValueError as exc:
            raise ValueError(f"'p': {exc}") from exc
        entries = np.array([[x % p for x in row] for row in action], dtype=np.int64)
        try:
            return cls(fieldp, entries.reshape(dim, dim))
        except ValueError as exc:
            raise ValueError(f"'action': {exc}") from exc


@dataclass(frozen=True)
class Decomposition:
    """Multiplicities of the indecomposable summands of size d = 1..p."""

    p: int
    multiplicities: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
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
    A negative count means the action matrix was corrupted.
    """
    p = module.p
    shifted = module.shifted()
    ranks = [module.dim]
    power = PrimeFieldMatrix.identity(module.field, module.dim)
    for _ in range(p):
        power = power @ shifted
        ranks.append(power.rank())
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

    @property
    def cycles(self) -> np.ndarray:
        return self.subquotient.z

    @property
    def boundaries(self) -> np.ndarray:
        return self.subquotient.b

    @property
    def representatives(self) -> np.ndarray:
        return self.subquotient.reps


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
        sub = Subquotient(shifted.kernel_basis().a, zero, p)
    elif k % 2 == 1:
        sub = Subquotient(norm.kernel_basis().a, shifted.image_basis().a, p)
    else:
        sub = Subquotient(shifted.kernel_basis().a, norm.image_basis().a, p)
    return GroupCohomology(k, sub)


def t_number(module: GModule) -> int:
    """dim H^2(Z/p, M), the t-analogue of a Betti number."""
    return group_cohomology(module, 2).dim


def check_dual_pairing(
    module: GModule, other: GModule, pairing: PrimeFieldMatrix
) -> bool:
    """True iff `pairing` is a non-degenerate Z/p-equivariant bilinear form.

    Equivariance means pairing(t x, t y) = pairing(x, y), i.e.
    T^t . P . T' = P.  A passing pairing forces the two modules to have
    equal decompositions, which is checked.
    """
    if module.p != other.p:
        raise ValueError("modules over different fields")
    if pairing.shape != (module.dim, other.dim):
        raise ValueError(
            f"pairing shape {pairing.shape} does not match module dims "
            f"({module.dim}, {other.dim})"
        )
    if not (module.action.T @ pairing @ other.action == pairing):
        return False
    if module.dim != other.dim:
        return False
    if pairing.rank() != module.dim:
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
    for d, m in sorted(multiplicities.items()):
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


@dataclass(frozen=True)
class ProfileDegree:
    module: GModule
    decomposition: Decomposition
    t: int


class CohomologyProfile:
    """Per-degree cohomology modules with their decompositions and t-numbers.

    t in degree i is dim H^2(Z/p, H^i); for each degree it is checked
    against the closed form: every summand of size d < p contributes 1,
    free summands contribute 0.
    """

    def __init__(self, p: int, modules: list[GModule]):
        self.p = p
        degrees = []
        for mod in modules:
            if mod.p != p:
                raise ValueError("mixed moduli in profile")
            dec = decompose(mod)
            t = t_number(mod)
            closed_form = sum(m for d, m in dec.multiplicities.items() if d < p)
            if t != closed_form:
                raise InvariantError("gmodule.profile",
                                     f"t-number {t} disagrees with the decomposition's {closed_form}")
            degrees.append(ProfileDegree(mod, dec, t))
        self.degrees: tuple[ProfileDegree, ...] = tuple(degrees)

    @classmethod
    def from_multiplicities(cls, p: int, per_degree: list[dict[int, int]]):
        return cls(p, [module_from_multiplicities(p, m) for m in per_degree])

    def __len__(self):
        return len(self.degrees)

    @property
    def top_degree(self) -> int:
        return len(self.degrees) - 1

    @property
    def betti(self) -> list[int]:
        return [d.module.dim for d in self.degrees]

    @property
    def t_numbers(self) -> list[int]:
        return [d.t for d in self.degrees]

    def t(self, i: int) -> int:
        return self.degrees[i].t if 0 <= i < len(self.degrees) else 0

    def is_nice(self) -> bool:
        return all(d.decomposition.is_nice() for d in self.degrees)

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * b for i, b in enumerate(self.betti))

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "degrees": [
                {
                    "dim": d.module.dim,
                    "decomposition": d.decomposition.to_json(),
                    "t": d.t,
                }
                for d in self.degrees
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
