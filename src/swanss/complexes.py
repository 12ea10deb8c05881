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
from itertools import chain, combinations, groupby, repeat
from operator import add, eq, gt, itemgetter, lt

import numpy as np

from .errors import InvariantError
from .linalg import (FactoredSolve, _is_int, check_modulus, matmul_mod, reduce_columns,
                     sparse_rank)
from .gmodule import CohomologyProfile, GModule


_tail = itemgetter(slice(1, None))


def _images(g, simplices):
    """The vertices g(v) of every simplex, lazily and in order: map(g, s) for each s."""
    return map(map, repeat(g), simplices)


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
        self.p = check_modulus(p)
        self.vertex_count = int(vertex_count)
        gen = tuple(int(v) for v in generator)
        # lengths first: a huge vertex count must not build its range
        if len(gen) != self.vertex_count or sorted(gen) != list(range(self.vertex_count)):
            raise ValueError("generator is not a permutation of the vertices")
        self.generator = gen

        simplices = list(simplices)
        try:
            ts = list(map(tuple, map(map, repeat(int), simplices)))
            valid = (all(ts) and all(map(all, map(map, repeat(lt), ts, map(_tail, ts))))
                     and min(map(itemgetter(0), ts), default=0) >= 0
                     and max(map(itemgetter(-1), ts), default=-1) < self.vertex_count)
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            # the first simplex in the given order that fails, with its message
            for s in simplices:
                t = tuple(int(v) for v in s)
                if not t or any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
                    raise ValueError(f"simplex {t} is not strictly increasing")
                if t[0] < 0 or t[-1] >= self.vertex_count:
                    raise ValueError(f"simplex {t} has out-of-range vertices")
        # lexicographic, then stably by size: each dimension comes out sorted
        ordered = sorted(set(ts))
        ordered.sort(key=len)
        self.dim = len(ordered[-1]) - 1 if ordered else -1
        self.simplices: dict[int, list[tuple]] = {d: [] for d in range(self.dim + 1)}
        for size, group in groupby(ordered, len):
            self.simplices[size - 1] = list(group)
        self._index: dict[int, dict[tuple, int]] = {
            d: dict(zip(S, range(len(S)))) for d, S in self.simplices.items()
        }

        self._validate_closure_and_action()

    # -- validation ----------------------------------------------------
    def _validate_closure_and_action(self):
        for d in range(1, self.dim + 1):
            lower, top = self._index[d - 1], self.simplices[d]
            if all(map(lower.__contains__, chain.from_iterable(map(combinations, top, repeat(d))))):
                continue
            # name the first missing face in the order s minus s[0], s minus s[1], ...
            for s in top:
                for i in range(len(s)):
                    face = s[:i] + s[i + 1 :]
                    if face not in lower:
                        raise FaceClosureError(s, face)
        # order divides p
        g = self.generator.__getitem__
        v = list(range(self.vertex_count))
        for _ in range(self.p):
            v = list(map(g, v))
        if v != list(range(self.vertex_count)):
            raise ValueError("generator order does not divide p")
        for d in range(self.dim + 1):
            idx, top = self._index[d], self.simplices[d]
            found = list(map(idx.__contains__, map(tuple, map(sorted, _images(g, top)))))
            if not all(found):
                s = top[found.index(False)]
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

    def generator_image_ordered(self, simplex: tuple, power: int = 1):
        s = list(simplex)
        for _ in range(power % self.p):
            s = [self.generator[v] for v in s]
        return s

    def is_order_compatible(self) -> bool:
        """Generator is increasing on every simplex."""
        g = self.generator.__getitem__
        for d in range(1, self.dim + 1):
            imgs = list(map(tuple, _images(g, self.simplices[d])))
            if not all(map(all, map(map, repeat(lt), imgs, map(_tail, imgs)))):
                return False
        return True

    def is_regular(self) -> bool:
        """Any power fixing a simplex setwise fixes it pointwise.

        p is prime, so every nontrivial power generates G: a power fixes a
        simplex setwise (pointwise) exactly when g does, and g alone is tested.
        """
        g = self.generator.__getitem__
        for d in range(1, self.dim + 1):
            top = self.simplices[d]
            imgs = list(map(tuple, _images(g, top)))
            setwise = map(eq, map(tuple, map(sorted, imgs)), top)
            if any(map(gt, setwise, map(eq, imgs, top))):  # fixed setwise, not pointwise
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
        for s in map(sorted, maximal):
            closed.update(chain.from_iterable(map(combinations, repeat(s), range(1, len(s) + 1))))
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
    index = dict(zip(order, range(len(order))))
    images = map(tuple, map(sorted, _images(K.generator.__getitem__, order)))
    generator = list(map(index.__getitem__, images))

    # the chains ending at s: (s,) and every chain of a proper face followed by s
    chains_of: dict[tuple, list[tuple]] = {}
    all_chains: list[tuple] = []
    for i, s in enumerate(order):
        tail = (i,)
        mine = [tail]
        for face in chain.from_iterable(map(combinations, repeat(s), range(1, len(s)))):
            mine.extend(map(add, chains_of[face], repeat(tail)))
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
    images = set()
    for d in range(K.dim + 1):
        images.update(map(tuple, map(sorted, map(set, _images(orbit.__getitem__, K.simplices[d])))))
    counts = Counter(map(len, images))
    for d in range(K.dim + 1):
        fixed_d = sum(map(all, _images(fixed.__getitem__, K.simplices[d])))
        if K.p * counts[d + 1] != len(K.simplices[d]) + (K.p - 1) * fixed_d:
            return None
    n_orbits = max(orbit) + 1 if orbit else 0
    return SimplicialGComplex(K.p, n_orbits, list(range(n_orbits)), images)


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


def _sorted_rows(cols: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of each row, (column, value), sorted by column within the row."""
    order = np.argsort(cols, axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(vals, order, axis=1)


def _face_signs(d: int) -> np.ndarray:
    """Signs of the faces of a d-simplex s in the order of combinations(s, d).

    The k-th combination drops s[d - k], with sign (-1)^(d - k).
    """
    return (-1) ** (d - np.arange(d + 1))


class EquivariantCochainComplex:
    """Cochain complex over F_p with the induced Z/p action per degree.

    The coboundary out of degree l is kept as a face table, `faces[l]`:
    row i lists the indices of the l-faces of the i-th (l+1)-simplex in
    the order of `combinations`, with the fixed signs `_face_signs(l + 1)`,
    so (delta a)[i] = sum_k sign_k a[faces[l][i, k]].  No dense matrix of
    delta is ever built: `cohomology` reduces the face tables sparsely.

    The action T in degree l sends a cochain a to a(g^{-1}(.)), with the
    orientation sign of the vertex reordering (always +1 after
    regularization, still computed defensively); it is stored as a signed
    permutation (`act_pre`, `act_sign`).

    The constructor checks delta o delta = 0, T delta = delta T in every
    degree and T^p = 1, and raises `InvariantError` at `complexes.cochain`
    otherwise.  The first two checks work on the face tables in time
    linear in their size: delta o delta composes two tables, and
    T delta = delta T compares, row by row and sorted by column, the
    entries of (T delta)[i] (faces[pre1[i]] with signs sign1[i] sign_k)
    with those of (delta T)[i] (pre0[faces[i]] with signs
    sign_k sign0[faces[i]]).  This is the only check the Swan double
    complex relies on: its d_h is T - 1 or the norm N, so [d_h, d_v] = 0
    and d_h o d_h = 0 follow from these two facts about T (see `swan`).
    """

    def __init__(self, K: SimplicialGComplex):
        if not (K.is_order_compatible() and K.is_regular()):
            raise ValueError("cochain complex requires a regular, order-compatible complex")
        self.K = K
        self.p = K.p
        self.top_degree = K.dim
        self.dims = [len(K.simplices[d]) for d in range(K.dim + 1)]

        self.faces: list[np.ndarray] = []
        for l in range(self.top_degree):
            lower = K._index[l]
            flat = map(lower.__getitem__,
                       chain.from_iterable(map(combinations, K.simplices[l + 1], repeat(l + 1))))
            self.faces.append(np.fromiter(flat, dtype=np.intp).reshape(-1, l + 2))
        self.face_signs = [_face_signs(l + 1) for l in range(self.top_degree)]

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
            # row i of delta_(l+1) delta_l: the l-faces of the l-faces of
            # simplex i, with the products of their signs, summed per face
            ends = self.faces[l][self.faces[l + 1]].reshape(self.dims[l + 2], -1)
            signs = np.outer(self.face_signs[l + 1], self.face_signs[l]).ravel()
            ends, signs = _sorted_rows(ends, np.broadcast_to(signs, ends.shape))
            first = np.ones(ends.shape, dtype=bool)
            first[:, 1:] = ends[:, 1:] != ends[:, :-1]
            if np.any(np.add.reduceat(signs.ravel(), np.flatnonzero(first)) % p):
                raise InvariantError("complexes.cochain", f"delta o delta != 0 out of degree {l}")
        for l in range(self.top_degree):
            faces, face_sign = self.faces[l], self.face_signs[l] % p
            pre1, sign1 = self.act_pre[l + 1], self.act_sign[l + 1]
            pre0, sign0 = self.act_pre[l], self.act_sign[l]
            t_delta = _sorted_rows(faces[pre1], np.outer(sign1, face_sign) % p)
            delta_t = _sorted_rows(pre0[faces], face_sign * sign0[faces] % p)
            if not all(map(np.array_equal, t_delta, delta_t)):
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

    def dim(self, l: int) -> int:
        return self.dims[l] if 0 <= l <= self.top_degree else 0

    # -- cohomology -----------------------------------------------------
    def _coboundary_columns(self, l: int) -> list[dict[int, int]]:
        """delta_l as columns: column j holds the cofaces of l-simplex j,
        with the signs they give it (all {} in the top degree)."""
        cols: list[dict[int, int]] = [{} for _ in range(self.dims[l])]
        if l < self.top_degree:
            signs = (self.face_signs[l] % self.p).tolist()
            for i, row in enumerate(self.faces[l].tolist()):
                for j, sign in zip(row, signs):
                    cols[j][i] = sign
        return cols

    def _boundary_columns(self, l: int) -> list[dict[int, int]]:
        """The boundary out of degree l, the transpose of delta_(l-1), as
        columns: column i holds the faces of l-simplex i."""
        if l == 0:
            return [{} for _ in range(self.dims[0])]
        signs = (self.face_signs[l - 1] % self.p).tolist()
        return [dict(zip(row, signs)) for row in self.faces[l - 1].tolist()]

    def cohomology(self) -> list["DegreeCohomology"]:
        """H^l for every l, each read off two sparse reductions with clearing.

        The boundaries are reduced from the top degree down, the
        coboundaries from degree 0 up, each recording its column
        operations V (R = D·V, `linalg.sparse_rank`).  In both, a column
        at a pivot row of the previous map is cleared (`linalg`), and the
        V columns of the other columns that reduce to zero are cycles
        (cocycles) whose classes are a basis of H_l (H^l); the reduced
        columns of delta_(l-1) span B^l.  `CohomologyBasis` holds the
        rest.
        """
        if self._cohomology is None:
            p, top = self.p, self.top_degree
            cycles: list[list[dict[int, int]]] = [[] for _ in range(top + 1)]
            pivots: dict[int, tuple] = {}
            for l in range(top, -1, -1):
                pivots, cycles[l] = _reduce_with_clearing(self._boundary_columns(l), pivots, p)
            reduced = []
            pivots = {}
            for l in range(top + 1):
                below = pivots
                pivots, reps = _reduce_with_clearing(self._coboundary_columns(l), below, p)
                reduced.append((reps, below))
            if sum((-1) ** l * d for l, d in enumerate(self.dims)) != sum(
                (-1) ** l * len(reps) for l, (reps, _) in enumerate(reduced)
            ):
                raise InvariantError("complexes.cohomology", "Euler-Poincare mismatch")
            out = []
            for l, (reps, below) in enumerate(reduced):
                basis = CohomologyBasis(self, l, reps, below, cycles[l])
                act = basis.coordinates_many(self.apply_action(l, basis.reps))
                out.append(DegreeCohomology(l, basis, GModule(p, act)))
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

    def cohomology_cup_pairing(self, l: int, lp: int) -> np.ndarray:
        """Matrix of the scalar pairing H^l x H^lp -> H^(l+lp) = K."""
        coh = self.cohomology()
        target = coh[l + lp]
        da, db = coh[l].dim, coh[lp].dim
        front, back = self._cup_tables(l, lp)
        # every product rep_i u rep'_j as one column, i major
        cups = coh[l].subquotient.reps[front][:, :, None] * coh[lp].subquotient.reps[back][:, None, :]
        coords = target.subquotient.coordinates_many(np.mod(cups.reshape(len(front), da * db), self.p))
        return coords[0].reshape(da, db) if target.dim else np.zeros((da, db), dtype=np.int64)


def _reduce_with_clearing(columns: list[dict[int, int]], cleared: dict[int, tuple], p: int):
    """Reduce `columns` by `sparse_rank`, recording V from the identity,
    with the columns at the pivot rows of the map reduced before (the keys
    of `cleared`) set to {}.

    Returns the pivots, {pivot row: (R column, V column)}, and the V
    columns of the other columns that reduce to zero, in column order.
    """
    for i in cleared:
        columns[i] = {}
    ops = [{} if j in cleared else {j: 1} for j in range(len(columns))]
    sparse_rank(columns, p, ops)
    pivots = {}
    zero = []
    for j, col in enumerate(columns):
        if col:
            pivots[max(col)] = (col, ops[j])
        elif j not in cleared:
            zero.append(ops[j])
    return pivots, zero


def _dense_columns(columns: list[dict[int, int]], n: int) -> np.ndarray:
    out = np.zeros((n, len(columns)), dtype=np.int64)
    for j, col in enumerate(columns):
        out[list(col), j] = list(col.values())
    return out


class CohomologyBasis:
    """H^l = Z^l / B^l presented by representative cocycles, from the
    sparse reductions of `EquivariantCochainComplex.cohomology`.

    - `reps`: the cocycles of the reduction of delta_l, dense, one column
      per class.  They are a basis of a complement of B^l in Z^l.  A rep
      V_j ends at row j (V is unit upper triangular), and the reduced
      columns of delta_(l-1), which span B^l, end at the cleared rows.
      These last rows are distinct, so the vectors are independent, and
      they are as many as the columns of delta_l that reduce to zero,
      dim Z^l (de Silva, Morozov and Vejdemo-Johansson, "Dualities in
      persistent (co)homology", Inverse Problems 2011; Bauer, "Ripser",
      J. Appl. Comput. Topol. 2021).
    - `coordinates*`: by the Kronecker pairing.  A cycle pairs to zero
      with every coboundary, so <c, v> depends only on the class of a
      cocycle v.  With the cycles c_1..c_h of the boundary reduction,
      M = cycles^T·reps is the matrix of the pairing of H_l with H^l,
      which is perfect over a field, so M must be square and invertible;
      otherwise `InvariantError` at `complexes.cohomology`.  The
      coordinates of v are M^-1·cycles^T·v, one product, once delta_l·v = 0
      has been checked on the face table.
    - `preimage`: y is reduced by the reduced columns R = delta_(l-1)·V of
      delta_(l-1), keyed on their pivot rows, and the matching V columns
      are summed into w.
    """

    def __init__(self, C: EquivariantCochainComplex, l: int, reps: list[dict[int, int]],
                 pivots: dict[int, tuple], cycles: list[dict[int, int]]):
        p = self.p = C.p
        n = C.dim(l)
        self.dim = len(reps)
        self.reps = _dense_columns(reps, n)
        self._pivots, self._below = pivots, C.dim(l - 1)
        self._faces = (C.faces[l], C.face_signs[l] % p) if l < C.top_degree else None
        dual = _dense_columns(cycles, n).T
        pairing = matmul_mod(dual, self.reps, p)
        solver = FactoredSolve(pairing, p)
        if len(cycles) != self.dim or solver.rank < self.dim:
            raise InvariantError("complexes.cohomology",
                                 f"the Kronecker pairing of H_{l} with H^{l} is degenerate")
        self._dual = matmul_mod(solver.transform, dual, p)  # M^-1·cycles^T

    def coordinates(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of the class of the cocycle v against `reps`."""
        return self.coordinates_many(np.reshape(v, (-1, 1)))[:, 0]

    def coordinates_many(self, vs: np.ndarray) -> np.ndarray:
        """Coordinates of the classes of the cocycle columns of `vs`."""
        vs = np.mod(np.asarray(vs, dtype=np.int64), self.p)
        if self._faces is not None:
            faces, signs = self._faces
            if np.count_nonzero(sum(s * vs[col] for s, col in zip(signs, faces.T)) % self.p):
                raise ValueError("vector is not a cocycle")
        return matmul_mod(self._dual, vs, self.p).astype(np.int64)

    def preimage(self, y: np.ndarray) -> np.ndarray | None:
        """A solution w of delta_(l-1)·w = y, or None if y is not a coboundary."""
        y = np.mod(np.asarray(y, dtype=np.int64).reshape(-1), self.p)
        rows = y.nonzero()[0]
        rest = [dict(zip(rows.tolist(), y[rows].tolist()))]
        op: dict[int, int] = {}
        # each step takes f·R = delta_(l-1)·(f·V) off y and adds -f·V to op
        reduce_columns(rest, [op], self._pivots, self.p, grow=False)
        if rest[0]:
            return None
        w = np.zeros(self._below, dtype=np.int64)
        w[list(op)] = [-x % self.p for x in op.values()]
        return w

    def lift(self, coords: np.ndarray) -> np.ndarray:
        coords = np.mod(np.asarray(coords, dtype=np.int64).reshape(self.dim), self.p)
        return matmul_mod(self.reps, coords, self.p).astype(np.int64)


class DegreeCohomology:
    """H^l of the cochain complex with its induced module structure."""

    def __init__(self, degree: int, subquotient: CohomologyBasis, module: GModule):
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
    # ranks[d] is the rank of the boundary out of dimension d; clearing
    # (see `linalg`) needs the boundary above reduced first
    ranks = [0] * (K.dim + 2)
    cleared = []
    for d in range(K.dim, 0, -1):
        lower = K._index[d - 1]
        signs = (_face_signs(d) % p).tolist()
        cols = [dict(zip(map(lower.__getitem__, combinations(s, d)), signs))
                for s in K.simplices[d]]
        for i in cleared:
            cols[i] = {}
        ranks[d] = sparse_rank(cols, p)
        cleared = [max(c) for c in cols if c]
    f = K.f_vector()
    return [f[d] - ranks[d] - ranks[d + 1] for d in range(K.dim + 1)]


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
