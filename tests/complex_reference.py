"""The per-simplex tuple implementations of the bulk operations of
`swanss.complexes`, kept as references for the array code.

Each reads a complex only through its tuple view (`simplices`,
`generator`, `vertex_count`, `p`) and returns plain data: a complex as the
dict `SimplicialGComplex.to_json` gives, its simplices deduplicated and
sorted by size, then lexicographically.
"""

from collections import Counter
from itertools import chain, combinations, repeat
from operator import add, eq, gt, itemgetter, lt

_tail = itemgetter(slice(1, None))


def _images(g, simplices):
    return map(map, repeat(g), simplices)


def as_json(p: int, vertex_count: int, generator, simplices) -> dict:
    """A complex as `to_json` writes it, repeats dropped."""
    ordered = sorted(set(map(tuple, simplices)))
    ordered.sort(key=len)
    return {"p": p, "vertices": vertex_count, "generator": list(generator),
            "simplices": [list(s) for s in ordered]}


def f_vector(K) -> list[int]:
    return [len(K.simplices[d]) for d in range(K.dim + 1)]


def is_order_compatible(K) -> bool:
    g = K.generator.__getitem__
    for d in range(1, K.dim + 1):
        imgs = list(map(tuple, _images(g, K.simplices[d])))
        if not all(map(all, map(map, repeat(lt), imgs, map(_tail, imgs)))):
            return False
    return True


def is_regular(K) -> bool:
    g = K.generator.__getitem__
    for d in range(1, K.dim + 1):
        top = K.simplices[d]
        imgs = list(map(tuple, _images(g, top)))
        setwise = map(eq, map(tuple, map(sorted, imgs)), top)
        if any(map(gt, setwise, map(eq, imgs, top))):  # fixed setwise, not pointwise
            return False
    return True


def vertex_orbits(K) -> list[int]:
    orbit_of = [-1] * K.vertex_count
    count = 0
    for v in range(K.vertex_count):
        if orbit_of[v] < 0:
            w = v
            while orbit_of[w] < 0:
                orbit_of[w] = count
                w = K.generator[w]
            count += 1
    return orbit_of


def barycentric_subdivision(K) -> dict:
    order = [s for d in range(K.dim + 1) for s in K.simplices[d]]
    index = dict(zip(order, range(len(order))))
    images = map(tuple, map(sorted, _images(K.generator.__getitem__, order)))
    generator = list(map(index.__getitem__, images))
    chains_of: dict[tuple, list[tuple]] = {}
    all_chains: list[tuple] = []
    for i, s in enumerate(order):
        tail = (i,)
        mine = [tail]
        for face in chain.from_iterable(map(combinations, repeat(s), range(1, len(s)))):
            mine.extend(map(add, chains_of[face], repeat(tail)))
        chains_of[s] = mine
        all_chains.extend(mine)
    return as_json(K.p, len(order), generator, all_chains)


def fixed_subcomplex(K) -> dict:
    fixed_vertices = [v for v in range(K.vertex_count) if K.generator[v] == v]
    relabel = {v: i for i, v in enumerate(fixed_vertices)}
    simplices = []
    for d in range(K.dim + 1):
        for s in K.simplices[d]:
            if all(v in relabel for v in s):
                simplices.append(tuple(relabel[v] for v in s))
    return as_json(K.p, len(fixed_vertices), range(len(fixed_vertices)), simplices)


def orbit_quotient(K) -> dict | None:
    """The complex of orbit images of K, or None if they fail the count."""
    orbit = vertex_orbits(K)
    fixed = [K.generator[v] == v for v in range(K.vertex_count)]
    images = set()
    for d in range(K.dim + 1):
        images.update(map(tuple, map(sorted, map(set, _images(orbit.__getitem__, K.simplices[d])))))
    counts = Counter(map(len, images))
    for d in range(K.dim + 1):
        fixed_d = sum(map(all, _images(fixed.__getitem__, K.simplices[d])))
        if K.p * counts[d + 1] != len(K.simplices[d]) + (K.p - 1) * fixed_d:
            return None
    n_orbits = max(orbit) + 1 if orbit else 0
    return as_json(K.p, n_orbits, range(n_orbits), images)


class TupleComplex:
    """A complex held as its tuple view alone, from `as_json` data."""

    def __init__(self, data: dict):
        self.p, self.vertex_count = data["p"], data["vertices"]
        self.generator = tuple(data["generator"])
        self.simplices: dict[int, list[tuple]] = {}
        for s in data["simplices"]:
            self.simplices.setdefault(len(s) - 1, []).append(tuple(s))
        self.dim = max(self.simplices, default=-1)


def quotient_complex(K) -> dict | None:
    """The orbit images of K, or of its subdivision when K fails the count."""
    Q = orbit_quotient(K)
    return Q if Q is not None else orbit_quotient(TupleComplex(barycentric_subdivision(K)))
