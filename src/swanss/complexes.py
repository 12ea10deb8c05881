"""Finite ordered simplicial complexes with a Z/p action.

Simplices are strictly increasing vertex tuples.  A complex stores each
dimension d as one int array `rows[d]` of shape (f_d, d + 1), a simplex
per row, the rows in lexicographic order; every bulk operation here works
on whole dimensions of these arrays.  A simplex is found by its key
(`_row_keys`).  A row (v_0, ..., v_(w-1)) of a complex on n vertices is
read as a number in base n, Sigma v_i n^(w-1-i), one uint64 word while
n^w <= 2^64; past that bound its key is its big-endian bytes, compared as
a string, which no vertex count can overflow.  Either key is exact and
sorts as the rows do, and its kind follows from (n, w) alone, the same
for a dimension's keys and for every row looked up in it, so one
`searchsorted` per dimension looks up any number of simplices
(`SimplicialGComplex._find`).

The pipeline needs the action to be *order-compatible*: the generator g
is increasing on every simplex, so cochain-level actions carry no signs
and the front/back-face cup product is equivariant.  One barycentric
subdivision, ordered barycenters-by-dimension, always achieves it, and
order compatibility implies everything else this module asks of an
action:

- *regularity*: every power of g is increasing on every simplex, and an
  increasing bijection of a finite chain onto itself is the identity, so
  a power fixing a simplex setwise fixes it pointwise;
- *orbit injectivity*: if u < g^j u lay in one simplex, then
  g^j u < g^2j u < ... < g^pj u = u, a contradiction, so no simplex holds
  two vertices of one orbit.

The orbit space K/G is read two ways.  Its simplicial model,
`quotient_complex`, has for d-simplices the orbit images (sorted
vertex-orbit labels) of K's d-simplices.  Each orbit has one image, so
this is the orbit space when distinct orbits have distinct images.  K is
regular, so a d-simplex is fixed, with all its vertices, or lies in an
orbit of p: the images must number (f_d + (p - 1) f_d^G) / p, f_d^G
counting the fixed d-simplices.  When K fails this count, its
subdivision passes it: if chains s_0 < ... < s_k and t_0 < ... < t_k of
K's simplices have equal images and t_k = h s_k, then t_i and h s_i are
faces of t_k in one orbit, equal since t_k holds no two vertices of one
orbit.  The subdivision reads its chains off templates: the chains of
faces ending at a d-simplex are the same chains of vertex subsets for
every d-simplex, so each dimension takes one lookup of its faces per
subset size and one gather per chain length.

The analysis builds no such complex (`quotient_numbers`): it counts the
images for the f-vector and reads the Betti numbers off the *orbit
cells* of K.  The orbits of the simplices of a regular G-complex are the
cells of a CW structure on K/G whose cellular chains are the coinvariants
C_*(K)_G (Bredon, "Introduction to Compact Transformation Groups",
ch. III section 1), so over F_p both models have the homology of K/G.  A
cell [tau] has the boundary Sigma_j (-1)^j [d_j tau], the same for every
member of the orbit: g commutes with the boundary and, K being
order-compatible, keeps the vertex order of every simplex, so
[g tau] = [tau] with sign +1.  Distinct faces of a simplex tau lie in
distinct orbits.  Say d_i tau = h d_k tau for some h in G, i != k.  h
keeps every vertex in its orbit, so the two faces hold the same orbits.
But tau holds no two vertices of one orbit, so d_i tau holds every orbit
of tau but that of its vertex i, and d_k tau every one but that of its
vertex k, and these differ.  So the column of a d-cell has d + 1
distinct rows, each +-1, and no coefficients merge.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain, combinations, groupby, repeat
from operator import itemgetter, lt

import numpy as np

from .errors import InvariantError
from .linalg import (Csc, SparseReduction, _is_int, check_modulus, csc_from_entries,
                     sparse_rank)
from .gmodule import CohomologyProfile, GModule, decompose


_tail = itemgetter(slice(1, None))


def _row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """One key per row (last axis) of an int array with entries in [0, n),
    ordered as the rows are lexicographically: for rows of width w, the
    row as the w digits of a base-n number, one uint64, while n^w <= 2^64,
    and otherwise its big-endian bytes as one void scalar, compared as a
    byte string."""
    w = rows.shape[-1]
    if n ** w <= 1 << 64:  # every key, at most n^w - 1, fits in one word
        return rows.astype(np.uint64) @ np.array([n ** e for e in range(w - 1, -1, -1)],
                                                 dtype=np.uint64)
    r = rows.astype(np.min_scalar_type(n).newbyteorder(">"), order="C")
    return r.view(np.dtype((np.void, r.itemsize * r.shape[-1]))).reshape(r.shape[:-1])


def _orbits(perm: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The orbits of a permutation of range(n) whose order divides p: their
    least members, increasing, and the orbit id of each element, the rank
    of its orbit's least member."""
    least = w = np.arange(len(perm))
    for _ in range(p - 1):  # the orbit of i is i, g i, ..., g^(p-1) i
        w = perm[w]
        least = np.minimum(least, w)
    reps, ids = np.unique(least, return_inverse=True)
    return reps, ids.reshape(-1)


@cache
def _face_positions(d: int) -> np.ndarray:
    """Row k: the positions of the k-th face of a d-simplex in the order of
    combinations(s, d), which drops position d - k."""
    return np.array(list(combinations(range(d + 1), d)), dtype=np.intp).reshape(d + 1, d)


def _unique_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """The distinct rows of a 2-D int array with entries in [0, n), in
    lexicographic order."""
    return rows[np.unique(_row_keys(rows, n), return_index=True)[1]]


def _tuple_blocks(simplices: list, n: int) -> dict[int, np.ndarray] | None:
    """{size: rows} of the distinct vertex sequences in `simplices`, the
    rows of each size in lexicographic order, or None if one is not
    strictly increasing with vertices in [0, n).  The few simplices of an
    input file cost less as tuples than the array calls would."""
    ts = list(map(tuple, map(map, repeat(int), simplices)))
    if not (all(ts) and all(map(all, map(map, repeat(lt), ts, map(_tail, ts))))
            and min(map(itemgetter(0), ts), default=0) >= 0
            and max(map(itemgetter(-1), ts), default=-1) < n):
        return None
    # lexicographic, then stably by size: each size comes out sorted
    ordered = sorted(set(ts))
    ordered.sort(key=len)
    return {size: np.array(list(group), dtype=np.intp) for size, group in groupby(ordered, len)}


def _array_blocks(blocks: list, n: int) -> dict[int, np.ndarray] | None:
    """`_tuple_blocks` for simplices given as the rows of 2-D int arrays."""
    by_size: dict[int, list[np.ndarray]] = {}
    for b in blocks:
        if len(b):
            by_size.setdefault(b.shape[1], []).append(b)
    out = {}
    for size, bs in by_size.items():
        r = np.concatenate(bs).astype(np.intp, copy=False)
        if not (size and (r[:, 1:] > r[:, :-1]).all() and r[:, 0].min() >= 0
                and r[:, -1].max() < n):
            return None
        out[size] = _unique_rows(r, n)
    return out


class SimplicialGComplex:
    """A finite simplicial complex with a vertex permutation of order | p.

    `simplices` holds vertex sequences, or else 2-D int arrays whose rows
    are simplices; repeats are dropped.  The constructor checks that every
    simplex is strictly increasing and in range, that the simplices are
    closed under faces, that the generator is a permutation of order
    dividing p and that it maps every simplex to a simplex.  Face closure
    and the action are checked on whole dimensions.  A failing check names
    the first offending simplex: in the order given for the first check,
    by dimension, then lexicographically, for the others.

    - `rows[d]`: the d-simplices, lexicographically sorted rows;
    - `_faces[d]`: the indices of the faces of each d-simplex, in the
      order of `combinations` (`_face_positions`);
    - `_image[d]`: the index of g(s) for each d-simplex s, the
      permutation g induces on the d-simplices.
    """

    def __init__(self, p: int, vertex_count: int, generator, simplices):
        self.p = check_modulus(p)
        self.vertex_count = n = int(vertex_count)
        gen = tuple(map(int, generator))
        # lengths first: a huge vertex count must not build its range
        if len(gen) != n or sorted(gen) != list(range(n)):
            raise ValueError("generator is not a permutation of the vertices")
        self.generator = gen
        self._g = np.array(gen, dtype=np.intp)

        simplices = list(simplices)
        as_rows = bool(simplices) and isinstance(simplices[0], np.ndarray) and simplices[0].ndim == 2
        try:
            blocks = (_array_blocks if as_rows else _tuple_blocks)(simplices, n)
        except (TypeError, ValueError, OverflowError):
            blocks = None
        if blocks is None:
            # the first simplex in the given order that fails, with its message
            for s in chain.from_iterable(simplices) if as_rows else simplices:
                t = tuple(int(v) for v in s)
                if not t or any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
                    raise ValueError(f"simplex {t} is not strictly increasing")
                if t[0] < 0 or t[-1] >= n:
                    raise ValueError(f"simplex {t} has out-of-range vertices")
        self.dim = max(blocks, default=0) - 1
        self.rows = [blocks.get(d + 1, np.zeros((0, d + 1), dtype=np.intp))
                     for d in range(self.dim + 1)]
        self._keys = [_row_keys(r, n) for r in self.rows]

        self._validate_closure_and_action()

    # -- validation ----------------------------------------------------
    def _validate_closure_and_action(self):
        self._faces = [np.zeros((len(r), 0), dtype=np.intp) for r in self.rows[:1]]
        for d in range(1, self.dim + 1):
            faces = self.rows[d][:, _face_positions(d)]
            # face k of every simplex, then face k + 1: within each run the
            # keys come nearly sorted, as the rows are, and `searchsorted`
            # is fastest on sorted queries
            at, found = (a.T for a in self._find(d - 1, faces.transpose(1, 0, 2)))
            if not found.all():
                # the first missing face in the order s minus s[0], s minus s[1], ...,
                # the last one in the order of combinations
                s = (~found).any(axis=1).argmax()
                k = d - (~found[s, ::-1]).argmax()
                raise FaceClosureError(self.rows[d][s].tolist(), faces[s, k].tolist())
            self._faces.append(at)
        # order divides p
        ident = np.arange(self.vertex_count)
        v = ident
        for _ in range(self.p):
            v = self._g[v]
        if not (v == ident).all():
            raise ValueError("generator order does not divide p")
        self._image = []
        for d, rows in enumerate(self.rows):
            at, found = self._find(d, np.sort(self._g[rows], axis=1))
            if not found.all():
                s = tuple(rows[found.argmin()].tolist())
                raise ValueError(f"generator does not map simplex {s} to a simplex")
            self._image.append(at)

    # -- lookup ----------------------------------------------------------
    def _find(self, d: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The index among the d-simplices of each simplex given as a row
        (last axis) of `rows`, vertices in [0, vertex_count), and whether
        it is one; the index is meaningless where it is not."""
        keys, query = self._keys[d], _row_keys(rows, self.vertex_count)
        at = keys.searchsorted(query)
        if not len(keys):
            return at, np.zeros(at.shape, dtype=bool)
        return at, keys.take(at, mode="clip") == query

    def _index_of(self, d: int, rows) -> np.ndarray:
        """`_find` for rows that must all be d-simplices; KeyError otherwise."""
        rows = np.asarray(rows, dtype=np.intp).reshape(-1, d + 1)
        at, found = self._find(d, rows)
        if not found.all():
            raise KeyError(tuple(rows[found.argmin()].tolist()))
        return at

    # -- elementary queries ---------------------------------------------
    def f_vector(self) -> list[int]:
        return [len(r) for r in self.rows]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * f for d, f in enumerate(self.f_vector()))

    def size(self) -> int:
        return sum(self.f_vector())

    def is_order_compatible(self) -> bool:
        """Generator is increasing on every simplex.

        Every two consecutive vertices of a simplex span one of its
        edges, so it is enough that g is increasing on the edges.
        """
        if self.dim < 1:
            return True
        ends = self._g[self.rows[1]]
        return bool(np.all(ends[:, 0] < ends[:, 1]))

    def is_regular(self) -> bool:
        """Any power fixing a simplex setwise fixes it pointwise.

        p is prime, so every nontrivial power generates G: a power fixes a
        simplex setwise (pointwise) exactly when g does, and g alone is tested.
        """
        fixed = self.fixed_points()
        for d in range(1, self.dim + 1):
            setwise = self._image[d] == np.arange(len(self.rows[d]))
            if not fixed[self.rows[d][setwise]].all():  # fixed setwise, not pointwise
                return False
        return True

    def vertex_orbits(self) -> np.ndarray:
        """Orbit id per vertex; ids number the orbits by their least vertex."""
        return _orbits(self._g, self.p)[1]

    def fixed_points(self) -> np.ndarray:
        """Whether each vertex index is a 0-simplex that g fixes.  An index
        that is no 0-simplex is no point of the space, so never a fixed one."""
        fixed = np.zeros(self.vertex_count, dtype=bool)
        if self.rows:
            points = self.rows[0][:, 0]
            fixed[points] = self._g[points] == points
        return fixed

    def is_free(self) -> bool:
        return not self.fixed_points().any()

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "vertices": self.vertex_count,
            "generator": list(self.generator),
            "simplices": [s for r in self.rows for s in r.tolist()],
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


@cache
def _subdivision_templates(d: int):
    """The faces of a d-simplex and its chains of faces, by vertex positions.

    A face is a nonempty set of positions, numbered by its bitmask minus 1.
    Returns [(size, face numbers, positions)] per face size, and
    {length: face numbers} of the chains f_0 < ... < f_k = the simplex,
    one chain per row.
    """
    faces = []
    for size in range(1, d + 2):
        positions = list(combinations(range(d + 1), size))
        numbers = [sum(1 << i for i in face) - 1 for face in positions]
        faces.append((size, np.array(numbers, dtype=np.intp),
                      np.array(positions, dtype=np.intp).reshape(len(positions), size)))

    @cache
    def ending_at(mask):
        out = [(mask,)]
        sub = (mask - 1) & mask
        while sub:
            out.extend(c + (mask,) for c in ending_at(sub))
            sub = (sub - 1) & mask
        return out

    chains: dict[int, list] = {}
    for c in ending_at((1 << (d + 1)) - 1):
        chains.setdefault(len(c), []).append(c)
    return faces, {k: np.array(cs, dtype=np.intp) - 1 for k, cs in chains.items()}


def barycentric_subdivision(K: SimplicialGComplex) -> SimplicialGComplex:
    """Subdivide once; barycenters are ordered by (dimension, lex).

    With that ordering any simplicial automorphism acts order-preservingly
    on the subdivision, and a setwise-fixed chain is fixed pointwise.
    The barycenter of the i-th d-simplex is vertex offset[d] + i.  Every
    simplex of the subdivision is a chain of faces ending at one simplex
    s of K, and the chains ending at a d-simplex are the same chains of
    vertex positions for every d-simplex (`_subdivision_templates`): the
    barycenters of all faces of all d-simplices are looked up once per
    face size, and each chain length is one gather of them.
    """
    offset = np.cumsum([0] + K.f_vector())
    generator = np.concatenate([np.zeros(0, dtype=np.intp)]
                               + [offset[d] + img for d, img in enumerate(K._image)])
    blocks = []
    for d, rows in enumerate(K.rows):
        faces, chains = _subdivision_templates(d)
        barycenter = np.empty((len(rows), (1 << (d + 1)) - 1), dtype=np.intp)
        for size, number, positions in faces:
            barycenter[:, number] = offset[size - 1] + K._find(size - 1, rows[:, positions])[0]
        blocks.extend(barycenter[:, c].reshape(-1, c.shape[1]) for c in chains.values())
    return SimplicialGComplex(K.p, int(offset[-1]), generator.tolist(), blocks)


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
    fixed = K.fixed_points()
    relabel = np.cumsum(fixed) - 1  # increasing on the fixed vertices
    count = int(np.count_nonzero(fixed))
    blocks = [relabel[r[fixed[r].all(axis=1)]] for r in K.rows]
    return SimplicialGComplex(K.p, count, range(count), blocks)


def _orbit_images(K: SimplicialGComplex) -> tuple[int, dict[int, np.ndarray]] | None:
    """The number of vertex orbits of K and the distinct orbit images of its
    simplices, {size: rows}, or None if they are not one per orbit."""
    orbit = K.vertex_orbits()
    fixed = K.fixed_points()
    # an image that repeats an orbit is shorter than its simplex, so the top
    # dimension holding such a simplex comes out short in the count
    by_size: dict[int, list[np.ndarray]] = {}
    for rows in K.rows:
        image = np.sort(orbit[rows], axis=1)
        new = np.ones(image.shape, dtype=bool)
        new[:, 1:] = image[:, 1:] != image[:, :-1]
        if new.all():
            by_size.setdefault(image.shape[1], []).append(image)
            continue
        sizes = new.sum(axis=1)
        for size in np.unique(sizes).tolist():
            mine = sizes == size
            by_size.setdefault(size, []).append(image[mine][new[mine]].reshape(-1, size))
    n_orbits = int(orbit.max()) + 1 if len(orbit) else 0
    images = {size: _unique_rows(np.concatenate(bs), n_orbits) for size, bs in by_size.items()}
    for d, rows in enumerate(K.rows):
        fixed_d = int(np.count_nonzero(fixed[rows].all(axis=1)))
        if K.p * len(images.get(d + 1, ())) != len(rows) + (K.p - 1) * fixed_d:
            return None
    return n_orbits, images


def _quotient_images(K: SimplicialGComplex) -> tuple[int, dict[int, np.ndarray]]:
    """`_orbit_images` of an order-compatible K, or of its subdivision when
    K's are not one per orbit (module docstring)."""
    if not K.is_order_compatible():
        raise ValueError("quotient complex requires an order-compatible complex")
    images = _orbit_images(K)
    if images is None:
        images = _orbit_images(barycentric_subdivision(K))
    if images is None:
        raise InvariantError("complexes.quotient",
                             "the subdivision's orbit images are not one per orbit")
    return images


def quotient_complex(K: SimplicialGComplex) -> SimplicialGComplex:
    """Orbit-space complex of an order-compatible K, subdividing it once if needed.

    The d-simplices of the quotient are the orbit images (sorted vertex-orbit
    labels) of K's d-simplices, or of its subdivision's (module docstring).
    """
    n_orbits, images = _quotient_images(K)
    return SimplicialGComplex(K.p, n_orbits, range(n_orbits), list(images.values()))


def quotient_numbers(K: SimplicialGComplex) -> tuple[list[int], list[int]]:
    """The f-vector and the F_p Betti numbers of `quotient_complex(K)`, for
    an order-compatible K, without building or reducing that complex.

    The f-vector counts the same orbit images.  The Betti numbers are those
    of the orbit cells of K, the coinvariant chain complex C_*(K)_G
    (module docstring): the cells of dimension d are the orbits of g's
    permutation `K._image[d]` of the d-simplices, and the column of a cell
    holds Sigma_j (-1)^j [d_j tau] on its least member tau, read off
    `K._faces[d]`.  `InvariantError` at `complexes.quotient` if two faces
    of a tau lie in one orbit, if the cell boundary does not square to
    zero (`_betti`), or if the two models of X/G differ in Euler
    characteristic.
    """
    _, images = _quotient_images(K)
    f = [len(images.get(d + 1, ())) for d in range(max(images, default=0))]
    p = K.p
    cells = [_orbits(image, p) for image in K._image]

    def boundary(d: int) -> Csc:
        reps, _ = cells[d]
        faces = cells[d - 1][1][K._faces[d][reps]]
        rows, signs = _sorted_rows(faces, np.broadcast_to(_face_signs(d) % p, faces.shape))
        shared = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        if shared.any():
            tau = K.rows[d][reps[shared.argmax()]].tolist()
            raise InvariantError("complexes.quotient",
                                 f"two faces of the simplex {tau} lie in one orbit")
        return Csc(np.arange(len(reps) + 1) * (d + 1), rows.ravel(), signs.ravel())

    counts = [len(reps) for reps, _ in cells]
    betti = _betti(counts, boundary, p, "complexes.quotient")
    chi_cells, chi_images = (sum((-1) ** d * x for d, x in enumerate(c)) for c in (counts, f))
    if chi_cells != chi_images:
        raise InvariantError("complexes.quotient", f"the orbit cells have Euler characteristic"
                             f" {chi_cells}, the orbit images {chi_images}")
    return f, betti


# -- cochain complexes ------------------------------------------------


def _sorted_rows(cols: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of each row, (column, value), sorted by column within the row."""
    order = np.argsort(cols, axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(vals, order, axis=1)


def _composes_to_zero(up_rows: np.ndarray, up_values: np.ndarray, rows: np.ndarray,
                      values: np.ndarray, p: int) -> bool:
    """Whether a boundary given by the rows and values of its columns, two
    arrays of one shape (as `_boundary` lays them out), maps every column
    of the boundary above it, given the same way, to 0 mod p: the
    face-of-face entries of each column above, summed per row."""
    ends = rows[up_rows].reshape(len(up_rows), -1)
    products = (up_values[:, :, None] * values[up_rows]).reshape(ends.shape)
    ends, products = _sorted_rows(ends, products)
    first = np.ones(ends.shape, dtype=bool)
    first[:, 1:] = ends[:, 1:] != ends[:, :-1]
    return not np.any(np.add.reduceat(products.ravel(), np.flatnonzero(first)) % p)


def _face_signs(d: int) -> np.ndarray:
    """Signs of the faces of a d-simplex s in the order of combinations(s, d).

    The k-th combination drops s[d - k], with sign (-1)^(d - k).
    """
    return (-1) ** (d - np.arange(d + 1))


def _boundary(K: SimplicialGComplex, d: int, p: int) -> Csc:
    """The boundary out of dimension d over F_p: column i holds the faces of
    d-simplex i, whose indices increase, with their signs (none for a
    vertex).  `K._faces[d]` is its row array as it is."""
    faces = K._faces[d]
    n, width = faces.shape
    return Csc(np.arange(n + 1) * width, faces.ravel(), np.resize(_face_signs(d) % p, faces.size))


class EquivariantCochainComplex:
    """Cochain complex over F_p with the induced Z/p action per degree.

    The coboundary out of degree l is kept as a face table, `faces[l]`:
    row i lists the indices of the l-faces of the i-th (l+1)-simplex in
    the order of `combinations`, with the fixed signs `_face_signs(l + 1)`,
    so (delta a)[i] = sum_k sign_k a[faces[l][i, k]].  No dense matrix of
    delta is ever built: `cohomology` reduces the face tables sparsely.

    The action T in degree l sends a cochain a to a(g^{-1}(.)), and it
    carries no signs.  The constructor rejects K unless it is
    order-compatible: g maps each simplex to a simplex and is increasing
    on it.  Then so is every power of g, g^{-1} = g^(p-1) among them, so
    g^{-1} takes the vertices of a simplex, in order, to the vertices of
    a simplex, in order, and the orientation sign is +1 (Bredon,
    "Introduction to Compact Transformation Groups", ch. III section 1).
    T permutes the simplices: (T a)[i] = a[act_pre[l][i]], with
    act_pre[l] the inverse of g's permutation `K._image[l]` of the
    l-simplices.

    The constructor checks delta o delta = 0, T delta = delta T in every
    degree and T^p = 1, and raises `InvariantError` at `complexes.cochain`
    otherwise.  The first two checks work on the face tables in time
    linear in their size: delta o delta composes two tables, and
    T delta = delta T compares, row by row and sorted by column, the
    entries of (T delta)[i] (faces[pre1[i]] with signs sign_k) with those
    of (delta T)[i] (pre0[faces[i]] with signs sign_k).  This is the only
    check the Swan double complex relies on: its d_h is T - 1 or the norm
    N, so [d_h, d_v] = 0 and d_h o d_h = 0 follow from these two facts
    about T (see `swan`).
    """

    def __init__(self, K: SimplicialGComplex):
        if not (K.is_order_compatible() and K.is_regular()):
            raise ValueError("cochain complex requires a regular, order-compatible complex")
        self.K = K
        self.p = K.p
        self.top_degree = K.dim
        self.dims = K.f_vector()

        self.faces = K._faces[1:]
        self.face_signs = [_face_signs(l + 1) for l in range(self.top_degree)]

        self.act_pre = [np.argsort(image) for image in K._image]  # a permutation's inverse

        self._check_invariants()
        self._coboundaries: dict[int, Csc] = {}
        self._cohomology = None
        self._cup_indices: dict[tuple[int, int], tuple] = {}

    # -- the action as an operator ----------------------------------------
    def apply_action(self, l: int, vectors: np.ndarray) -> np.ndarray:
        """Apply T to cochain column vectors in degree l."""
        return np.mod(np.asarray(vectors, dtype=np.int64)[self.act_pre[l]], self.p)

    def _check_invariants(self):
        p = self.p
        for l in range(self.top_degree - 1):
            # delta_(l+1) delta_l is the transpose of the boundary out of
            # l + 2 composed with the boundary out of l + 1
            up, down = ((self.faces[k], np.broadcast_to(self.face_signs[k], self.faces[k].shape))
                        for k in (l + 1, l))
            if not _composes_to_zero(*up, *down, p):
                raise InvariantError("complexes.cochain", f"delta o delta != 0 out of degree {l}")
        for l in range(self.top_degree):
            faces, pre1, pre0 = self.faces[l], self.act_pre[l + 1], self.act_pre[l]
            signs = np.broadcast_to(self.face_signs[l] % p, faces.shape)
            t_delta = _sorted_rows(faces[pre1], signs)
            delta_t = _sorted_rows(pre0[faces], signs)
            if not all(map(np.array_equal, t_delta, delta_t)):
                raise InvariantError("complexes.cochain",
                                     f"the action does not commute with delta out of degree {l}")
        for l in range(self.top_degree + 1):
            perm = ident = np.arange(self.dims[l], dtype=np.intp)
            for _ in range(p):
                perm = self.act_pre[l][perm]
            if not np.array_equal(perm, ident):
                raise InvariantError("complexes.cochain", f"t^p != 1 on {l}-cochains")

    def dim(self, l: int) -> int:
        return self.dims[l] if 0 <= l <= self.top_degree else 0

    # -- cohomology -----------------------------------------------------
    def _coboundary(self, l: int) -> Csc:
        """delta_l: column j holds the cofaces of l-simplex j, with the signs
        they give it (none in the top degree), read off the face table."""
        if l not in self._coboundaries:
            if l < self.top_degree:
                faces, signs = self.faces[l], self.face_signs[l] % self.p
            else:
                faces, signs = np.zeros((0, l + 2), dtype=np.intp), np.zeros(0, dtype=np.int64)
            cofaces = np.repeat(np.arange(len(faces)), faces.shape[1])
            self._coboundaries[l] = csc_from_entries(
                faces.ravel(), cofaces, np.resize(signs, faces.size), self.dims[l])
        return self._coboundaries[l]

    def cohomology(self) -> list["CohomologyBasis"]:
        """H^l for every l, each read off one sparse reduction with clearing.

        The coboundaries are reduced from degree 0 up, each recording its
        column operations V (R = D·V, `linalg.sparse_rank`).  A column at
        a pivot row of delta_(l-1) is cleared (`linalg`).  The V column of
        each other column that reduces to zero is a cocycle, and their
        classes are a basis of H^l; the reduced columns of delta_(l-1)
        span B^l.  Below degree 0 stands the empty reduction of the map
        from C^(-1) = 0.  `CohomologyBasis` holds the rest.
        """
        if self._cohomology is None:
            p = self.p
            empty = np.zeros(0, dtype=np.intp)
            below = SparseReduction(Csc(np.zeros(1, dtype=np.intp), empty, empty), p, record=True)
            reduced = []
            for l in range(self.top_degree + 1):
                red = sparse_rank(self._coboundary(l), p, below.pivot_rows, record=True)
                reduced.append((red.kernel, below))
                below = red
            if sum((-1) ** l * d for l, d in enumerate(self.dims)) != sum(
                (-1) ** l * len(reps) for l, (reps, _) in enumerate(reduced)
            ):
                raise InvariantError("complexes.cohomology", "Euler-Poincare mismatch")
            self._cohomology = [CohomologyBasis(self, l, reps, below)
                                for l, (reps, below) in enumerate(reduced)]
        return self._cohomology

    def cohomology_dims(self) -> list[int]:
        return [h.dim for h in self.cohomology()]

    # -- cup products ----------------------------------------------------
    def _cup_tables(self, l: int, lp: int):
        key = (l, lp)
        if key not in self._cup_indices:
            rows = self.K.rows[l + lp]
            self._cup_indices[key] = (self.K._index_of(l, rows[:, : l + 1]),
                                      self.K._index_of(lp, rows[:, l:]))
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
        cups = coh[l].reps[front][:, :, None] * coh[lp].reps[back][:, None, :]
        coords = target.coordinates_many(np.mod(cups.reshape(len(front), da * db), self.p))
        return coords[0].reshape(da, db) if target.dim else np.zeros((da, db), dtype=np.int64)


def _dense_columns(columns: list[dict[int, int]], n: int) -> np.ndarray:
    out = np.zeros((n, len(columns)), dtype=np.int64)
    for j, col in enumerate(columns):
        out[list(col), j] = list(col.values())
    return out


class CohomologyBasis:
    """H^l = Z^l / B^l presented by one representative cocycle per class,
    read off the sparse reductions of `EquivariantCochainComplex.cohomology`.

    - `reps`: the V columns of the reduction of delta_l that are in its
      `kernel`, dense, one column per class.  V_j starts as e_j, and the
      V columns subtracted from it have rows before j, so the rep V_j
      ends at its own row j with value 1; the constructor checks this and
      raises `InvariantError` at `complexes.cohomology` otherwise.  Row j
      is not cleared, so it is no pivot row of delta_(l-1), and the
      reduced columns of delta_(l-1), which span B^l, end at their
      distinct pivot rows.  All these last rows are distinct, so the
      vectors are independent.  There are rank delta_(l-1) = dim B^l
      reduced columns, and dim Z^l - dim B^l reps: of the dim Z^l columns
      of delta_l that reduce to zero, the cleared ones are
      rank delta_(l-1).  So together they are a basis of Z^l, and the
      reps a basis of a complement of B^l (de Silva, Morozov and
      Vejdemo-Johansson, "Dualities in persistent (co)homology", Inverse
      Problems 2011; Bauer, "Ripser", J. Appl. Comput. Topol. 2021).
    - One reduction serves every cochain y: that of delta_(l-1) with the
      reps added as the pivots at their rows
      (`linalg.SparseReduction.add_pivots`), that is, of the augmented
      matrix A = [delta_(l-1) | reps], with m = dim C^(l-1) columns from
      delta_(l-1) and then one per rep.  `SparseReduction.reduce` takes
      y to `rest` and x with y - rest = A·x.  A nonzero combination of
      vectors with distinct last rows ends where the latest of the
      vectors it takes ends.  So a nonzero vector of Z^l, a combination
      of the basis above, has a pivot at its lowest row, and each step
      keeps it in Z^l: a cocycle reduces to rest = 0, and a cochain off
      Z^l stops at rest != 0 (de Silva, Morozov and Vejdemo-Johansson,
      "Persistent cohomology and circular coordinates", Discrete Comput.
      Geom. 2011).
    - `coordinates_many`: for a cocycle y (delta_l·y = 0 is checked on the
      face table first), y = delta_(l-1)·x[:m] + reps·x[m:], so x[m:] are
      the coordinates of its class.  They are unique: reps·c in B^l forces
      c = 0, as the reps are independent of B^l.  So they do not depend
      on how y was reduced.  A cocycle left with rest != 0 contradicts the
      argument above: `InvariantError` at `complexes.cohomology`.
    - `module`: H^l as an F_p[Z/p]-module, the action in these coordinates.
    - `preimage`: y is in B^l exactly when rest = 0 and x[m:] = 0, and
      then delta_(l-1)·x[:m] = y.
    """

    def __init__(self, C: EquivariantCochainComplex, l: int, reps: list[dict[int, int]],
                 below: SparseReduction):
        # V_j starts as {j: 1}, so its first entry is (j, 1), and j must be its lowest row
        if any(next(iter(v.items()), None) != (max(v, default=-1), 1) for v in reps):
            raise InvariantError("complexes.cohomology",
                                 f"a representative of H^{l} does not end at its own row with 1")
        self.p, self.degree, self.dim = C.p, l, len(reps)
        self.reps = _dense_columns(reps, C.dim(l))
        self._faces = (C.faces[l], C.face_signs[l] % C.p) if l < C.top_degree else None
        self._below, self._m = below, C.dim(l - 1)
        below.add_pivots(reps)
        act = self.coordinates_many(C.apply_action(l, self.reps))
        try:
            self.module = GModule(C.p, act)
        except ValueError as exc:  # T is a chain map of order p, so is its action
            raise InvariantError("complexes.cohomology", f"the action on H^{l}: {exc}") from exc

    def _reduce(self, y: np.ndarray) -> tuple[bool, dict[int, int]]:
        """Whether the cochain y reduces to zero, and the nonzero entries
        of -x, with y - rest = [delta_(l-1) | reps]·x."""
        rows = y.nonzero()[0]
        rest = dict(zip(rows.tolist(), y[rows].tolist()))
        op: dict[int, int] = {}
        # each step takes f·R = [delta_(l-1) | reps]·(f·V) off y and adds -f·V to op
        self._below.reduce(rest, op)
        return not rest, op

    def coordinates_many(self, vs: np.ndarray) -> np.ndarray:
        """Coordinates of the classes of the cocycle columns of `vs`."""
        vs = np.mod(np.asarray(vs, dtype=np.int64), self.p)
        if self._faces is not None:
            faces, signs = self._faces
            if np.count_nonzero(sum(s * vs[col] for s, col in zip(signs, faces.T)) % self.p):
                raise ValueError("vector is not a cocycle")
        p, m = self.p, self._m
        coords = np.zeros((self.dim, vs.shape[1]), dtype=np.int64)
        for k, y in enumerate(vs.T):
            reduced, op = self._reduce(y)
            if not reduced:
                raise InvariantError("complexes.cohomology",
                                     f"a cocycle of degree {self.degree} does not reduce to zero")
            for j, v in op.items():  # x[m:], the rep columns
                if j >= m:
                    coords[j - m, k] = -v % p
        return coords

    def preimage(self, y: np.ndarray) -> np.ndarray | None:
        """A solution w of delta_(l-1)·w = y, or None if y is not a coboundary."""
        reduced, op = self._reduce(np.mod(np.asarray(y, dtype=np.int64).reshape(-1), self.p))
        x = np.zeros(self._m + self.dim, dtype=np.int64)
        x[list(op)] = [-v % self.p for v in op.values()]
        return x[: self._m] if reduced and not x[self._m :].any() else None


def cochain_complex(K: SimplicialGComplex) -> EquivariantCochainComplex:
    return EquivariantCochainComplex(K)


def cohomology_gmodules(C: EquivariantCochainComplex) -> CohomologyProfile:
    """Per-degree cohomology as F_p[Z/p]-modules."""
    return CohomologyProfile(C.p, [decompose(h.module) for h in C.cohomology()])


# -- fast Betti numbers (no action needed) ------------------------------


def betti_numbers(K: SimplicialGComplex) -> list[int]:
    """F_p Betti numbers, for K's own prime p, via sparse boundary reduction.
    Field coefficients make homology and cohomology dims agree.
    """
    return _betti(K.f_vector(), lambda d: _boundary(K, d, K.p), K.p, "complexes.betti")


def _betti(f: list[int], boundary, p: int, stage: str) -> list[int]:
    """F_p Betti numbers of a chain complex with f[d] cells in dimension d,
    `boundary(d)` the `Csc` of the boundary out of d, d >= 1, whose
    columns hold d + 1 entries each.

    Clearing (see `linalg`) is exact only when each boundary composed with
    the one above it is zero, so that is checked first on the d(d + 1)
    face-of-face entries of each column out of dimension d + 1
    (`_composes_to_zero`); `InvariantError` at `stage` otherwise.
    """
    # ranks[d] is the rank of the boundary out of dimension d; clearing
    # needs the boundary above reduced first
    top = len(f) - 1
    ranks = [0] * (top + 2)
    cleared = above = None
    for d in range(top, 0, -1):
        matrix = boundary(d)
        rows, values = matrix.rows.reshape(-1, d + 1), matrix.values.reshape(-1, d + 1)
        if above is not None and not _composes_to_zero(*above, rows, values, p):
            raise InvariantError(stage, f"boundary o boundary != 0 out of dimension {d + 1}")
        red = sparse_rank(matrix, p, cleared)
        ranks[d], cleared = red.rank, red.pivot_rows
        above = rows, values
    return [f[d] - ranks[d] - ranks[d + 1] for d in range(top + 1)]


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
