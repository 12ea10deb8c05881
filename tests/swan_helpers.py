"""Test helpers for the Swan double complex: formal sums of bigraded
cochains, dense references for the coboundary and the horizontal
differential, and the sparse total complex.

The total complex Tot^s = sum_(k+l=s) C^l with d = d_h + (-1)^k d_v is the
reference that `swan`'s small model of it, the transferred differential
D on sum_k H^*(X), is checked against.  Its blocks are laid out as
follows.

The action T on degree-l cochains permutes the simplices and carries no
signs: the base complex is order-compatible, so g^{-1} = g^(p-1) is
increasing on every simplex and keeps the order of its vertices
(`complexes.EquivariantCochainComplex`).  With post = `K._image[l]`, g's
permutation of the l-simplices and the inverse of `act_pre[l]`,
T e_j = e_post[j], so d_h is read off it directly:

    column j of T - 1:  1 at post[j], -1 at j
    column j of N:      1 along the orbit of j, the rows post^m[j], m < p

with values mod p.  A fixed cochain j (post[j] = j) has an empty column in
both, since its entries add up to 0 or to p; any other orbit has p
distinct members.  d_v = (-1)^k delta_l is the base complex's sparse
coboundary (`_coboundary`), read off its face table.  Each map is a
`Csc`, the column block (k, l) of d (`column_block`): its rows are those
of block (k, l + 1) of Tot^(s+1), where d_v lands, then those of block
(k + 1, l), where d_h lands.  These two blocks are next to each other in
Tot^(s+1) (blocks by increasing k), so `total_differential` puts the
column blocks of d_s side by side, each shifted down by the rows of the
blocks before it, and builds no column by itself.
"""

import numpy as np

from swanss.complexes import EquivariantCochainComplex, SimplicialGComplex
from swanss.linalg import Csc, csc_from_entries, matmul_mod
from swanss.swan import SwanDoubleComplex


def certificate_complex() -> SimplicialGComplex:
    """A free Z/3-action on 9 vertices, g(v) = 3*(v // 3) + (v + 1) % 3,
    on the orbits of three tetrahedra: f-vector [9, 33, 33, 9], with
    H^1 = V_3 and H^2 = V_2.  Its d_3 out of (k, 2) reads V-staircases
    with a nonzero block past the lead, which the corpus inputs never
    need."""
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


def d1_images(dc: SwanDoubleComplex, k: int, l: int) -> np.ndarray:
    """The cocycles reps_l·D_0 of the d_1 images into (k, l), as columns:
    D_0 out of (k - 1, l) is d_1, so every page from E_2 on kills them."""
    reps = dc.base.cohomology()[l].reps
    if k == 0:
        return np.zeros((reps.shape[0], 0), dtype=np.int64)
    return matmul_mod(reps, dc._transfer_blocks(k - 1, l)[0], dc.p).astype(np.int64)


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


def cell_dim(dc: SwanDoubleComplex, k: int, l: int) -> int:
    """dim C^l at cell (k, l) of the total complex, 0 off the quadrant."""
    return dc.base.dim(l) if k >= 0 and 0 <= l <= dc.n else 0


def tot_dim(dc: SwanDoubleComplex, s: int) -> int:
    return sum(cell_dim(dc, k, l) for k, l in dc._tot_blocks(s))


def column_block(dc: SwanDoubleComplex, k: int, l: int) -> Csc:
    """The columns of d out of block (k, l) (module docstring): the rows
    of (-1)^k delta_l, then those of d_h, T - 1 (k even) or N (k odd)."""
    base, p = dc.base, dc.p
    post = base.K._image[l]
    js = np.arange(len(post))
    moved = js[post != js]
    if k % 2 == 0:
        h_rows = np.sort(np.stack([moved, post[moved]]), axis=0)
        h_values = np.where(h_rows == moved, p - 1, 1)
    else:
        orbit = [moved]
        for _ in range(p - 1):
            orbit.append(post[orbit[-1]])
        h_rows = np.sort(np.stack(orbit), axis=0)
        h_values = np.ones_like(h_rows)
    indptr, v_rows, v_values = base._coboundary(l)
    v_cols = np.repeat(js, np.diff(indptr))
    h_cols = np.repeat(moved, len(h_rows))
    return csc_from_entries(
        np.concatenate([v_cols, h_cols]),
        np.concatenate([v_rows, h_rows.T.ravel() + base.dim(l + 1)]),
        np.concatenate([v_values * (-1) ** k % p, h_values.T.ravel()]),
        len(post))


def total_differential(dc: SwanDoubleComplex, s: int) -> Csc:
    """d: Tot^s -> Tot^(s+1), its column blocks side by side."""
    indptr, rows, values = [np.zeros(1, dtype=np.intp)], [], []
    nnz = row_at = 0
    for k, l in dc._tot_blocks(s):
        ip, r, v = column_block(dc, k, l)
        indptr.append(ip[1:] + nnz)
        rows.append(r + row_at)
        values.append(v)
        nnz += len(r)
        row_at += dc.base.dim(l + 1)  # past block (k, l + 1)
    return Csc(*map(np.concatenate, (indptr, rows, values)))
