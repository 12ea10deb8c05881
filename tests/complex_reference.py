"""The per-simplex tuple implementations of the bulk operations of
`swanss.complexes`, kept as references for the array code.

Each reads a complex only through its tuple view (`simplices(K)`,
`generator`, `vertex_count`, `p`) and returns plain data: a complex as the
dict `SimplicialGComplex.to_json` gives, its simplices deduplicated and
sorted by size, then lexicographically.
"""

from collections import Counter
from itertools import chain, combinations, repeat
from operator import add, eq, gt, itemgetter, lt

import numpy as np

_tail = itemgetter(slice(1, None))


def simplices(K) -> dict[int, list[tuple]]:
    """The d-simplices of K as vertex tuples, per d, in the order of `K.rows`."""
    return {d: list(map(tuple, r.tolist())) for d, r in enumerate(K.rows)}


def _images(g, simplices):
    return map(map, repeat(g), simplices)


def as_json(p: int, vertex_count: int, generator, simplices) -> dict:
    """A complex as `to_json` writes it, repeats dropped."""
    ordered = sorted(set(map(tuple, simplices)))
    ordered.sort(key=len)
    return {"p": p, "vertices": vertex_count, "generator": list(generator),
            "simplices": [list(s) for s in ordered]}


def f_vector(K) -> list[int]:
    return list(map(len, simplices(K).values()))


def is_order_compatible(K) -> bool:
    g = K.generator.__getitem__
    S = simplices(K)
    for d in range(1, K.dim + 1):
        imgs = list(map(tuple, _images(g, S[d])))
        if not all(map(all, map(map, repeat(lt), imgs, map(_tail, imgs)))):
            return False
    return True


def is_regular(K) -> bool:
    g = K.generator.__getitem__
    S = simplices(K)
    for d in range(1, K.dim + 1):
        top = S[d]
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
    order = list(chain.from_iterable(simplices(K).values()))
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
    fixed = []
    for s in chain.from_iterable(simplices(K).values()):
        if all(v in relabel for v in s):
            fixed.append(tuple(relabel[v] for v in s))
    return as_json(K.p, len(fixed_vertices), range(len(fixed_vertices)), fixed)


def orbit_quotient(K) -> dict | None:
    """The complex of orbit images of K, or None if they fail the count."""
    orbit = vertex_orbits(K)
    fixed = [K.generator[v] == v for v in range(K.vertex_count)]
    S = simplices(K)
    images = set()
    for d in range(K.dim + 1):
        images.update(map(tuple, map(sorted, map(set, _images(orbit.__getitem__, S[d])))))
    counts = Counter(map(len, images))
    for d in range(K.dim + 1):
        fixed_d = sum(map(all, _images(fixed.__getitem__, S[d])))
        if K.p * counts[d + 1] != len(S[d]) + (K.p - 1) * fixed_d:
            return None
    n_orbits = max(orbit) + 1 if orbit else 0
    return as_json(K.p, n_orbits, range(n_orbits), images)


class TupleComplex:
    """A complex from `as_json` data, held as its rows alone, unchecked."""

    def __init__(self, data: dict):
        self.p, self.vertex_count = data["p"], data["vertices"]
        self.generator = tuple(data["generator"])
        by_dim: dict[int, list] = {}
        for s in data["simplices"]:
            by_dim.setdefault(len(s) - 1, []).append(s)
        self.dim = max(by_dim, default=-1)
        self.rows = [np.array(by_dim[d], dtype=np.intp).reshape(-1, d + 1)
                     for d in range(self.dim + 1)]


def quotient_complex(K) -> dict | None:
    """The orbit images of K, or of its subdivision when K fails the count."""
    Q = orbit_quotient(K)
    return Q if Q is not None else orbit_quotient(TupleComplex(barycentric_subdivision(K)))


def _perm_sign(seq) -> int:
    """Sign of the permutation sorting `seq` (distinct entries)."""
    inv = 0
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def action(K) -> list[tuple[list[int], list[int]]]:
    """The action on cochains simplex by simplex, as (pre, sign) per degree:
    for each simplex s, the index of g^-1(s) = g^(p-1)(s), its vertices
    sorted, and the sign of the permutation that sorts them, so that
    (T a)[i] = sign[i] a[pre[i]]."""
    out = []
    for top in simplices(K).values():
        index = dict(zip(top, range(len(top))))
        pre, sign = [], []
        for s in top:
            image = s
            for _ in range(K.p - 1):
                image = tuple(K.generator[v] for v in image)
            pre.append(index[tuple(sorted(image))])
            sign.append(_perm_sign(image))
        out.append((pre, sign))
    return out
