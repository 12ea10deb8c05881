"""Test helpers for the Swan double complex: formal sums of bigraded
cochains and a dense reference for the horizontal differential."""

import numpy as np

from swanss.linalg import matmul_mod
from swanss.swan import SwanDoubleComplex


def dense_h(dc: SwanDoubleComplex, k: int, l: int) -> np.ndarray:
    """d_h out of column k in row l as a dense matrix: T - 1 for k even,
    N = T^0 + ... + T^(p-1) for k odd, each T^m applied to the identity."""
    eye = np.eye(dc.base.dim(l), dtype=np.int64)
    if k % 2 == 0:
        return np.mod(dc.base.apply_action(l, eye) - eye, dc.p)
    return np.mod(sum(dc.base.apply_action(l, eye, power=m) for m in range(dc.p)), dc.p)


def _add(out: dict, pos, vec, p: int):
    if vec.size and np.any(vec):
        out[pos] = np.mod(out[pos] + vec, p) if pos in out else np.mod(vec, p)


def tot_differential(dc: SwanDoubleComplex, element: dict) -> dict:
    """d on a formal sum {(k, l): cochain}."""
    out: dict[tuple[int, int], np.ndarray] = {}
    for (k, l), vec in element.items():
        _add(out, (k + 1, l), dc.apply_h(k, l, vec), dc.p)
        if l + 1 <= dc.n:
            dv = matmul_mod(dc.base.delta(l).a, np.mod(vec, dc.p), dc.p).astype(np.int64)
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
