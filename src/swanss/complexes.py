"""Finite ordered simplicial complexes with a Z/p action.

Simplices are strictly increasing vertex tuples.  The pipeline needs the
action to be *order-compatible*: the generator g is increasing on every
simplex, so cochain-level actions carry no signs and the front/back-face
cup product is equivariant.  One barycentric subdivision, ordered
barycenters-by-dimension, always achieves it, and order compatibility
implies everything else this module asks of an action:

- *regularity*: every power of g is increasing on every simplex, and an
  increasing bijection of a finite chain onto itself is the identity, so
  a power fixing a simplex setwise fixes it pointwise;
- *orbit injectivity*: if u < g^j u lay in one simplex, then
  g^j u < g^2j u < ... < g^pj u = u, a contradiction, so no simplex holds
  two vertices of one orbit.

A simplicial orbit quotient also needs distinct orbits of simplices to have
distinct images; `quotient_complex` checks that by a count and subdivides
at most once to pass it.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from .errors import InvariantError
from .linalg import FieldP, PrimeFieldMatrix, Subquotient, _is_int, sparse_rank
from .gmodule import CohomologyProfile, GModule


def _perm_sign(seq) -> int:
    """Sign of the permutation sorting `seq` (distinct entries)."""
    inv = 0
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


class SimplicialGComplex:
    """A finite simplicial complex with a vertex permutation of order | p."""

    def __init__(self, p: int, vertex_count: int, generator, simplices):
        self.field = FieldP(p)
        self.p = self.field.p
        self.vertex_count = int(vertex_count)
        gen = tuple(int(v) for v in generator)
        # lengths first: a huge vertex count must not build its range
        if len(gen) != self.vertex_count or sorted(gen) != list(range(self.vertex_count)):
            raise ValueError("generator is not a permutation of the vertices")
        self.generator = gen

        by_dim: dict[int, set] = {}
        for s in simplices:
            t = tuple(int(v) for v in s)
            if not t or any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
                raise ValueError(f"simplex {t} is not strictly increasing")
            if t[0] < 0 or t[-1] >= self.vertex_count:
                raise ValueError(f"simplex {t} has out-of-range vertices")
            by_dim.setdefault(len(t) - 1, set()).add(t)
        self.dim = max(by_dim) if by_dim else -1
        self.simplices: dict[int, list[tuple]] = {
            d: sorted(by_dim.get(d, ())) for d in range(self.dim + 1)
        }
        self._index: dict[int, dict[tuple, int]] = {
            d: {s: i for i, s in enumerate(self.simplices[d])}
            for d in range(self.dim + 1)
        }

        self._validate_closure_and_action()

    # -- validation ----------------------------------------------------
    def _validate_closure_and_action(self):
        for d in range(1, self.dim + 1):
            lower = self._index[d - 1]
            for s in self.simplices[d]:
                for i in range(len(s)):
                    face = s[:i] + s[i + 1 :]
                    if face not in lower:
                        raise FaceClosureError(s, face)
        # order divides p
        v = list(range(self.vertex_count))
        for _ in range(self.p):
            v = [self.generator[x] for x in v]
        if v != list(range(self.vertex_count)):
            raise ValueError("generator order does not divide p")
        for d in range(self.dim + 1):
            idx = self._index[d]
            for s in self.simplices[d]:
                if tuple(sorted(self.generator[x] for x in s)) not in idx:
                    raise ValueError(f"generator does not map simplex {s} to a simplex")

    # -- elementary queries ---------------------------------------------
    def f_vector(self) -> list[int]:
        return [len(self.simplices[d]) for d in range(self.dim + 1)]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * f for d, f in enumerate(self.f_vector()))

    def size(self) -> int:
        return sum(self.f_vector())

    def index(self, simplex: tuple) -> int:
        return self._index[len(simplex) - 1][simplex]

    def apply_generator(self, simplex: tuple) -> tuple:
        return tuple(sorted(self.generator[v] for v in simplex))

    def generator_image_ordered(self, simplex: tuple, power: int = 1):
        s = list(simplex)
        for _ in range(power % self.p):
            s = [self.generator[v] for v in s]
        return s

    def is_order_compatible(self) -> bool:
        """Generator is increasing on every simplex."""
        for d in range(1, self.dim + 1):
            for s in self.simplices[d]:
                img = [self.generator[v] for v in s]
                if any(img[i] >= img[i + 1] for i in range(len(img) - 1)):
                    return False
        return True

    def is_regular(self) -> bool:
        """Any power fixing a simplex setwise fixes it pointwise.

        p is prime, so every nontrivial power generates G: a power fixes a
        simplex setwise (pointwise) exactly when g does, and g alone is tested.
        """
        for d in range(1, self.dim + 1):
            for s in self.simplices[d]:
                img = tuple(self.generator[v] for v in s)
                if img != s and tuple(sorted(img)) == s:
                    return False
        return True

    def vertex_orbits(self) -> list[int]:
        """Orbit id per vertex; ids number the orbits by their least vertex."""
        orbit_of = [-1] * self.vertex_count
        count = 0
        for v in range(self.vertex_count):
            if orbit_of[v] < 0:
                w = v
                while orbit_of[w] < 0:
                    orbit_of[w] = count
                    w = self.generator[w]
                count += 1
        return orbit_of

    def is_free(self) -> bool:
        return all(self.generator[v] != v for v in range(self.vertex_count))

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "vertices": self.vertex_count,
            "generator": list(self.generator),
            "simplices": [list(s) for d in range(self.dim + 1) for s in self.simplices[d]],
        }

    @classmethod
    def from_maximal(cls, p, vertex_count, generator, maximal) -> "SimplicialGComplex":
        """Convenience constructor closing the given simplices under faces."""
        closed = set()
        stack = [tuple(sorted(s)) for s in maximal]
        while stack:
            s = stack.pop()
            if s in closed or not s:
                continue
            closed.add(s)
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                if face and face not in closed:
                    stack.append(face)
        return cls(p, vertex_count, generator, sorted(closed, key=lambda s: (len(s), s)))


class FaceClosureError(ValueError):
    def __init__(self, simplex, missing_face):
        self.simplex = tuple(simplex)
        self.missing_face = tuple(missing_face)
        super().__init__(
            f"simplex {list(simplex)} lacks face {list(missing_face)}"
        )


# -- barycentric subdivision ------------------------------------------


def barycentric_subdivision(K: SimplicialGComplex) -> SimplicialGComplex:
    """Subdivide once; barycenters are ordered by (dimension, lex).

    With that ordering any simplicial automorphism acts order-preservingly
    on the subdivision, and a setwise-fixed chain is fixed pointwise.
    """
    order = [s for d in range(K.dim + 1) for s in K.simplices[d]]
    index = {s: i for i, s in enumerate(order)}
    generator = [index[K.apply_generator(s)] for s in order]

    chains_of: dict[tuple, list[tuple]] = {}
    all_chains: list[tuple] = []
    for s in order:
        mine = [(index[s],)]
        n = len(s)
        for mask in range(1, (1 << n) - 1):
            face = tuple(v for i, v in enumerate(s) if mask & (1 << i))
            for c in chains_of[face]:
                mine.append(c + (index[s],))
        chains_of[s] = mine
        all_chains.extend(mine)
    return SimplicialGComplex(K.p, len(order), generator, all_chains)


def validate_and_regularize(K: SimplicialGComplex) -> SimplicialGComplex:
    """Return an order-compatible regular model of K: K itself or its subdivision."""
    if K.is_order_compatible() and K.is_regular():
        return K
    R = barycentric_subdivision(K)
    if not (R.is_order_compatible() and R.is_regular()):
        raise InvariantError("complexes.regularize",
                             "the barycentric subdivision is not order-compatible and regular")
    return R


def fixed_subcomplex(K: SimplicialGComplex) -> SimplicialGComplex:
    """Full subcomplex on pointwise-fixed simplices, with trivial action."""
    fixed_vertices = [v for v in range(K.vertex_count) if K.generator[v] == v]
    relabel = {v: i for i, v in enumerate(fixed_vertices)}
    simplices = []
    for d in range(K.dim + 1):
        for s in K.simplices[d]:
            if all(v in relabel for v in s):
                simplices.append(tuple(relabel[v] for v in s))
    return SimplicialGComplex(
        K.p, len(fixed_vertices), list(range(len(fixed_vertices))), simplices
    )


def _orbit_quotient(K: SimplicialGComplex) -> SimplicialGComplex | None:
    """The complex of orbit images of K, or None if they are not one per orbit."""
    orbit = K.vertex_orbits()
    fixed = [K.generator[v] == v for v in range(K.vertex_count)]
    # an image that repeats an orbit is shorter than its simplex, so the top
    # dimension holding such a simplex comes out short in the count
    images = {tuple(sorted({orbit[v] for v in s}))
              for d in range(K.dim + 1) for s in K.simplices[d]}
    counts = Counter(len(t) for t in images)
    for d in range(K.dim + 1):
        fixed_d = sum(all(fixed[v] for v in s) for s in K.simplices[d])
        if K.p * counts[d + 1] != len(K.simplices[d]) + (K.p - 1) * fixed_d:
            return None
    n_orbits = max(orbit) + 1 if orbit else 0
    return SimplicialGComplex(
        K.p, n_orbits, list(range(n_orbits)), sorted(images, key=lambda s: (len(s), s))
    )


def quotient_complex(K: SimplicialGComplex) -> SimplicialGComplex:
    """Orbit-space complex of an order-compatible K, subdividing it once if needed.

    The d-simplices of the quotient are the orbit images (sorted vertex-orbit
    labels) of K's d-simplices.  Each orbit has one image, so this is the
    orbit space when distinct orbits have distinct images.  K is regular
    (module docstring), so a d-simplex is fixed, with all its vertices, or
    lies in an orbit of p: the images must number (f_d + (p - 1) f_d^G) / p,
    f_d^G counting the fixed d-simplices.  When K fails this count, its
    subdivision passes it: if chains s_0 < ... < s_k and t_0 < ... < t_k of
    K's simplices have equal images and t_k = h s_k, then t_i and h s_i are
    faces of t_k in one orbit, equal since t_k holds no two vertices of one
    orbit.
    """
    if not K.is_order_compatible():
        raise ValueError("quotient complex requires an order-compatible complex")
    Q = _orbit_quotient(K)
    if Q is None:
        Q = _orbit_quotient(barycentric_subdivision(K))
    if Q is None:
        raise InvariantError("complexes.quotient",
                             "the subdivision's orbit images are not one per orbit")
    return Q


# -- cochain complexes ------------------------------------------------


class EquivariantCochainComplex:
    """Cochain complex over F_p with the induced Z/p action per degree.

    The action T in degree l sends a cochain a to a(g^{-1}(.)), with the
    orientation sign of the vertex reordering (always +1 after
    regularization, still computed defensively); it is stored as a signed
    permutation (`act_pre`, `act_sign`).

    The constructor checks delta o delta = 0, T delta = delta T in every
    degree and T^p = 1, and raises `InvariantError` at `complexes.cochain`
    otherwise.  This is the only check the Swan double complex relies on:
    its d_h is T - 1 or the norm N, so [d_h, d_v] = 0 and d_h o d_h = 0
    follow from these two facts about T (see `swan`).
    """

    def __init__(self, K: SimplicialGComplex):
        if not (K.is_order_compatible() and K.is_regular()):
            raise ValueError("cochain complex requires a regular, order-compatible complex")
        self.K = K
        self.p = K.p
        self.field = K.field
        self.top_degree = K.dim
        self.dims = [len(K.simplices[d]) for d in range(K.dim + 1)]

        self.coboundary: list[PrimeFieldMatrix] = []
        for l in range(self.top_degree):
            m = np.zeros((self.dims[l + 1], self.dims[l]), dtype=np.int64)
            lower = K._index[l]
            for i, s in enumerate(K.simplices[l + 1]):
                for j in range(len(s)):
                    face = s[:j] + s[j + 1 :]
                    m[i, lower[face]] += (-1) ** j
            self.coboundary.append(PrimeFieldMatrix(self.field, m))

        # Action stored as signed permutations: (T a)[i] = sign[i] * a[pre[i]]
        # where pre[i] indexes g^{-1}(sigma_i).
        inv_power = self.p - 1
        self.act_pre: list[np.ndarray] = []
        self.act_sign: list[np.ndarray] = []
        for l in range(self.top_degree + 1):
            pre = np.zeros(self.dims[l], dtype=np.intp)
            sign = np.zeros(self.dims[l], dtype=np.int64)
            for i, s in enumerate(K.simplices[l]):
                pre_ordered = K.generator_image_ordered(s, inv_power)
                pre[i] = K._index[l][tuple(sorted(pre_ordered))]
                sign[i] = _perm_sign(pre_ordered) % self.p
            self.act_pre.append(pre)
            self.act_sign.append(sign)

        self._check_invariants()
        self._cohomology = None
        self._cup_indices: dict[tuple[int, int], tuple] = {}

    # -- the action as an operator ----------------------------------------
    def apply_action(self, l: int, vectors: np.ndarray, power: int = 1) -> np.ndarray:
        """Apply T^power to cochain column vectors in degree l."""
        out = np.asarray(vectors, dtype=np.int64)
        pre, sign = self.act_pre[l], self.act_sign[l]
        for _ in range(power % self.p):
            if out.ndim == 1:
                out = np.mod(sign * out[pre], self.p)
            else:
                out = np.mod(sign[:, None] * out[pre, :], self.p)
        return out

    def _check_invariants(self):
        p = self.p
        for l in range(self.top_degree - 1):
            if not (self.coboundary[l + 1] @ self.coboundary[l]).is_zero():
                raise InvariantError("complexes.cochain", f"delta o delta != 0 out of degree {l}")
        for l in range(self.top_degree):
            delta = self.coboundary[l].a
            pre1, sign1 = self.act_pre[l + 1], self.act_sign[l + 1]
            t_delta = np.mod(sign1[:, None] * delta[pre1, :], p)
            pre0, sign0 = self.act_pre[l], self.act_sign[l]
            delta_t = np.zeros_like(delta)
            delta_t[:, pre0] = np.mod(delta * sign0[None, :], p)
            if not np.array_equal(t_delta, delta_t):
                raise InvariantError("complexes.cochain",
                                     f"the action does not commute with delta out of degree {l}")
        for l in range(self.top_degree + 1):
            ident = np.arange(self.dims[l], dtype=np.intp)
            perm = ident
            sign = np.ones(self.dims[l], dtype=np.int64)
            for _ in range(p):
                sign = np.mod(sign * self.act_sign[l][perm], p)
                perm = self.act_pre[l][perm]
            if not (np.array_equal(perm, ident) and np.all(sign == 1 % p)):
                raise InvariantError("complexes.cochain", f"t^p != 1 on {l}-cochains")

    def delta(self, l: int) -> PrimeFieldMatrix:
        """Coboundary out of degree l (zero map above the top degree)."""
        if 0 <= l < self.top_degree:
            return self.coboundary[l]
        rows = self.dims[l + 1] if l + 1 <= self.top_degree else 0
        cols = self.dims[l] if 0 <= l <= self.top_degree else 0
        return PrimeFieldMatrix.zeros(self.field, rows, cols)

    def dim(self, l: int) -> int:
        return self.dims[l] if 0 <= l <= self.top_degree else 0

    # -- cohomology -----------------------------------------------------
    def cohomology(self) -> list["DegreeCohomology"]:
        if self._cohomology is None:
            out = []
            for l in range(self.top_degree + 1):
                kernel = self.delta(l).kernel_basis().a
                if l == 0:
                    image = np.zeros((self.dims[0], 0), dtype=np.int64)
                else:
                    image = self.delta(l - 1).a
                sub = Subquotient(kernel, image, self.p)
                act = sub.coordinates_many(self.apply_action(l, sub.reps))
                out.append(
                    DegreeCohomology(l, sub, GModule(self.field, PrimeFieldMatrix(self.field, act)))
                )
            if sum((-1) ** l * d for l, d in enumerate(self.dims)) != sum(
                (-1) ** h.degree * h.dim for h in out
            ):
                raise InvariantError("complexes.cohomology", "Euler-Poincare mismatch")
            self._cohomology = out
        return self._cohomology

    def cohomology_dims(self) -> list[int]:
        return [h.dim for h in self.cohomology()]

    # -- cup products ----------------------------------------------------
    def _cup_tables(self, l: int, lp: int):
        key = (l, lp)
        if key not in self._cup_indices:
            tot = l + lp
            front, back = [], []
            for s in self.K.simplices[tot]:
                front.append(self.K._index[l][s[: l + 1]])
                back.append(self.K._index[lp][s[l:]])
            self._cup_indices[key] = (
                np.array(front, dtype=np.intp),
                np.array(back, dtype=np.intp),
            )
        return self._cup_indices[key]

    def cup(self, l: int, alpha: np.ndarray, lp: int, beta: np.ndarray) -> np.ndarray:
        """Front-face/back-face cochain cup product; zero above top degree."""
        tot = l + lp
        if tot > self.top_degree:
            return np.zeros(0, dtype=np.int64)
        front, back = self._cup_tables(l, lp)
        alpha = np.asarray(alpha, dtype=np.int64)
        beta = np.asarray(beta, dtype=np.int64)
        return np.mod(alpha[front] * beta[back], self.p)

    def cohomology_cup_pairing(self, l: int, lp: int) -> PrimeFieldMatrix:
        """Matrix of the scalar pairing H^l x H^lp -> H^(l+lp) = K."""
        coh = self.cohomology()
        target = coh[l + lp]
        da, db = coh[l].dim, coh[lp].dim
        front, back = self._cup_tables(l, lp)
        # every product rep_i u rep'_j as one column, i major
        cups = coh[l].subquotient.reps[front][:, :, None] * coh[lp].subquotient.reps[back][:, None, :]
        coords = target.subquotient.coordinates_many(np.mod(cups.reshape(len(front), da * db), self.p))
        mat = coords[0].reshape(da, db) if target.dim else np.zeros((da, db), dtype=np.int64)
        return PrimeFieldMatrix(self.field, mat)


class DegreeCohomology:
    """H^l of the cochain complex with its induced module structure."""

    def __init__(self, degree: int, subquotient: Subquotient, module: GModule):
        self.degree = degree
        self.subquotient = subquotient
        self.module = module

    @property
    def dim(self) -> int:
        return self.subquotient.dim


def cochain_complex(K: SimplicialGComplex) -> EquivariantCochainComplex:
    return EquivariantCochainComplex(K)


def cohomology_gmodules(C: EquivariantCochainComplex) -> CohomologyProfile:
    """Per-degree cohomology as F_p[Z/p]-modules."""
    return CohomologyProfile(C.p, [h.module for h in C.cohomology()])


# -- fast Betti numbers (no action needed) ------------------------------


def betti_numbers(K: SimplicialGComplex, p: int | None = None) -> list[int]:
    """F_p Betti numbers via sparse boundary reduction.

    Used for large quotient complexes where dense matrices would be
    wasteful; field coefficients make homology and cohomology dims agree.
    """
    p = p or K.p
    ranks = []
    for d in range(1, K.dim + 1):
        lower = K._index[d - 1]
        cols = []
        for s in K.simplices[d]:
            col = {}
            for j in range(len(s)):
                face = s[:j] + s[j + 1 :]
                col[lower[face]] = (-1) ** j % p
            cols.append(col)
        ranks.append(sparse_rank(cols, p))
    ranks.append(0)
    f = K.f_vector()
    out = []
    prev_rank = 0
    for d in range(K.dim + 1):
        out.append(f[d] - prev_rank - ranks[d])
        prev_rank = ranks[d]
    return out


# -- JSON ingestion -----------------------------------------------------


def _locate_simplex_line(text: str, index: int) -> tuple[int, int] | None:
    """(line, column) of the index-th simplex array in the source, 1-based."""
    key = text.find('"simplices"')
    if key < 0:
        return None
    i = text.find("[", key)
    if i < 0:
        return None
    depth = 0
    count = -1
    for pos in range(i, len(text)):
        c = text[pos]
        if c == "[":
            depth += 1
            if depth == 2:
                count += 1
                if count == index:
                    line = text.count("\n", 0, pos) + 1
                    col = pos - text.rfind("\n", 0, pos)
                    return line, col
        elif c == "]":
            depth -= 1
            if depth == 0:
                break
    return None


class ComplexFileError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


def load_complex_json(text: str) -> SimplicialGComplex:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ComplexFileError("expected a JSON object")
    for field_name in ("p", "vertices", "generator", "simplices"):
        if field_name not in data:
            raise ComplexFileError(f"missing field {field_name!r}")
    for field_name in ("p", "vertices"):
        if not _is_int(data[field_name]):
            raise ComplexFileError(f"{field_name!r} must be an integer, not {data[field_name]!r}")
    generator, simplices = data["generator"], data["simplices"]
    if not isinstance(generator, list) or not all(_is_int(v) for v in generator):
        raise ComplexFileError("'generator' must be a list of integers")
    if not isinstance(simplices, list) or not all(
        isinstance(s, list) and all(_is_int(v) for v in s) for s in simplices
    ):
        raise ComplexFileError("'simplices' must be a list of lists of integers")
    if not simplices:
        raise ComplexFileError("the complex has no simplices")
    try:
        return SimplicialGComplex(
            data["p"], data["vertices"], data["generator"], data["simplices"]
        )
    except FaceClosureError as exc:
        simplices = [tuple(int(v) for v in s) for s in data["simplices"]]
        try:
            index = simplices.index(exc.simplex)
        except ValueError:
            index = -1
        loc = _locate_simplex_line(text, index) if index >= 0 else None
        if loc:
            raise ComplexFileError(str(exc), loc[0], loc[1]) from exc
        raise ComplexFileError(str(exc)) from exc
