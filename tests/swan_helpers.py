"""Test helpers for the Swan double complex: formal sums of bigraded
cochains and dense references for the coboundary and the horizontal
differential."""

import numpy as np

from swanss.complexes import EquivariantCochainComplex, SimplicialGComplex
from swanss.linalg import matmul_mod
from swanss.swan import SwanDoubleComplex


def certificate_complex() -> SimplicialGComplex:
    """A free Z/3-action on 9 vertices, g(v) = 3*(v // 3) + (v + 1) % 3,
    on the orbits of three tetrahedra: f-vector [9, 33, 33, 9], with
    H^1 = V_3 and H^2 = V_2.  Its page tower extends staircases by
    certificate corrections, which the corpus inputs never need."""
    g = [3 * (v // 3) + (v + 1) % 3 for v in range(9)]
    tetrahedra = set()
    for t in [(0, 1, 6, 7), (0, 3, 5, 7), (0, 5, 7, 8)]:
        for _ in range(3):
            tetrahedra.add(tuple(sorted(t)))
            t = tuple(g[v] for v in t)
    return SimplicialGComplex.from_maximal(3, 9, g, sorted(tetrahedra))


def page_three_complex() -> SimplicialGComplex:
    """A free Z/3-action on 6 vertices (two orbits) and 18 simplices:
    f-vector [6, 9, 3], with the cohomology of a circle, H^0 = H^1 = V_1.  Its
    top degree is 2, so r_max = 4, but d_2 already kills every class past
    column 1 and the tower converges at page 3."""
    return SimplicialGComplex(3, 6, [4, 0, 3, 5, 1, 2], [
        [0], [1], [2], [3], [4], [5],
        [0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 4], [1, 5], [3, 4], [4, 5],
        [0, 1, 2], [0, 3, 4], [1, 4, 5],
    ])


def dense_delta(C: EquivariantCochainComplex, l: int) -> np.ndarray:
    """The coboundary out of degree l as a dense matrix with entries in
    [0, p), built from the face table (the zero map outside 0 <= l < top)."""
    rows = C.dim(l + 1)
    m = np.zeros((rows, C.dim(l)), dtype=np.int64)
    if 0 <= l < C.top_degree:
        m[np.arange(rows)[:, None], C.faces[l]] = C.face_signs[l] % C.p
    return m


def dense_h(dc: SwanDoubleComplex, k: int, l: int) -> np.ndarray:
    """d_h out of column k in row l as a dense matrix: T - 1 for k even,
    N = T^0 + ... + T^(p-1) for k odd, each T^m applied to the identity."""
    eye = np.eye(dc.base.dim(l), dtype=np.int64)
    if k % 2 == 0:
        return np.mod(dc.base.apply_action(l, eye) - eye, dc.p)
    total, power = eye, eye
    for _ in range(dc.p - 1):
        power = dc.base.apply_action(l, power)
        total = total + power
    return np.mod(total, dc.p)


def _add(out: dict, pos, vec, p: int):
    if vec.size and np.any(vec):
        out[pos] = np.mod(out[pos] + vec, p) if pos in out else np.mod(vec, p)


def tot_differential(dc: SwanDoubleComplex, element: dict) -> dict:
    """d on a formal sum {(k, l): cochain}."""
    out: dict[tuple[int, int], np.ndarray] = {}
    for (k, l), vec in element.items():
        _add(out, (k + 1, l), dc.apply_h(k, l, vec), dc.p)
        if l + 1 <= dc.n:
            dv = matmul_mod(dense_delta(dc.base, l), np.mod(vec, dc.p), dc.p).astype(np.int64)
            _add(out, (k, l + 1), ((-1) ** k % dc.p) * dv % dc.p, dc.p)
    return {pos: vec for pos, vec in out.items() if np.any(vec)}


def tot_product(dc: SwanDoubleComplex, x: dict, y: dict) -> dict:
    """Bilinear extension of the signed product to formal sums."""
    out: dict[tuple[int, int], np.ndarray] = {}
    for (k, l), a in x.items():
        for (k2, l2), b in y.items():
            if l + l2 <= dc.n:
                _add(out, (k + k2, l + l2), dc.product(k, l, a, k2, l2, b), dc.p)
    return {pos: vec for pos, vec in out.items() if np.any(vec)}
