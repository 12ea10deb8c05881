"""The sparse cohomology against the dense construction it replaced, and
the invariants it checks."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from swanss.complexes import cochain_complex, validate_and_regularize
from swanss.gmodule import GModule, decompose
from swanss.linalg import Subquotient, column_echelon_mod, kernel_mod
from subquotient_helpers import lift
from swan_helpers import dense_delta
from test_quotient import orbit_closures

PIPELINES = ["circle-3", "circle-5", "circle-2", "circle-trivial-3", "join-3-1-1",
             "join-3-1-0", "join-5-1-1", "join-5-1-0", "suspension-3", "suspension-5"]


class ReferenceCohomology:
    """H^l the dense way: the canonical kernel of delta_l and one
    Subquotient of it against delta_(l-1)."""

    def __init__(self, C, l):
        self.z = kernel_mod(dense_delta(C, l), C.p)
        self.sub = Subquotient(self.z, dense_delta(C, l - 1), C.p)
        act = self.sub.coordinates_many(C.apply_action(l, self.sub.reps))
        self.module = GModule(C.p, act)


def _assert_matches_reference(C, seed):
    p = C.p
    rng = np.random.default_rng(seed)
    for l, h in enumerate(C.cohomology()):
        ref = ReferenceCohomology(C, l)
        basis, n = h, C.dim(l)
        below = dense_delta(C, l - 1)
        assert h.dim == basis.dim == ref.sub.dim
        assert basis.reps.dtype == np.int64 and basis.reps.shape == (n, h.dim)
        # the representatives and B^l span Z^l
        assert np.array_equal(column_echelon_mod(np.hstack([basis.reps, below]), p), ref.z)
        # coordinates: the representatives are the basis, coboundaries are 0
        assert np.array_equal(basis.coordinates_many(basis.reps), np.eye(h.dim, dtype=np.int64))
        ws = rng.integers(0, p, (C.dim(l - 1), 3))
        coboundaries = below @ ws % p
        assert not basis.coordinates_many(coboundaries).any()
        # a random cocycle minus the lift of its coordinates is a coboundary
        vs = ref.z @ rng.integers(0, p, (ref.z.shape[1], 3)) % p
        coords = basis.coordinates_many(vs)
        assert np.array_equal(coords, np.hstack([basis.coordinates_many(v[:, None]) for v in vs.T]))
        for v, c in zip(vs.T, coords.T):
            assert basis.preimage(np.mod(lift(basis, c) - v, p)) is not None
        # preimage: some solution in B^l, None off it
        for y in coboundaries.T:
            w = basis.preimage(y)
            assert w.dtype == np.int64 and w.shape == (C.dim(l - 1),)
            assert np.array_equal(below @ w % p, y)
        if h.dim:
            assert basis.preimage(np.mod(coboundaries[:, 0] + basis.reps[:, -1], p)) is None
        # a cochain that is not a cocycle: no coordinates, no preimage
        if l < C.top_degree:
            off = np.zeros(n, dtype=np.int64)
            off[C.faces[l][0, 0]] = 1
            with pytest.raises(ValueError, match="not a cocycle"):
                basis.coordinates_many(off[:, None])
            assert basis.preimage(off) is None
        # the action module, up to the change of basis
        assert json.dumps(decompose(h.module).to_json()) == json.dumps(
            decompose(ref.module).to_json())


@pytest.mark.parametrize("name", PIPELINES)
def test_cohomology_matches_the_dense_reference(pipelines, name):
    _assert_matches_reference(pipelines(name).C, seed=len(name))


@settings(max_examples=60, deadline=None)
@given(orbit_closures())
def test_cohomology_matches_the_dense_reference_on_random_complexes(K):
    _assert_matches_reference(cochain_complex(validate_and_regularize(K)), seed=K.size())


_BREAK_COHOMOLOGY = """
import sys
from swanss import complexes
from swanss.corpus import build_circle
from swanss.errors import InvariantError
from swanss.linalg import SparseReduction

reduce, add_pivots = complexes.sparse_rank, SparseReduction.add_pivots


def broken(mode):
    def sparse_rank(matrix, p, cleared=None, record=False):
        red = reduce(matrix, p, cleared, record)
        if mode == "own-row":  # each recorded cocycle gains the row after its own
            for op in red.kernel:
                if max(op) + 2 < len(matrix.indptr):
                    op[max(op) + 1] = 1
        elif mode == "rank":  # the first column reduced to zero from nonzero is lost from the kernel
            indptr = matrix.indptr
            given = [op for op in red.kernel if indptr[max(op) + 1] > indptr[max(op)]]
            if given and red.rank:
                red.kernel.remove(given[0])
        return red
    return sparse_rank


R = complexes.validate_and_regularize(build_circle(3))
for mode in sys.argv[1:]:
    complexes.sparse_rank = broken(mode)
    # "unreduced": the reps become no pivots, so no cocycle reduces to zero
    SparseReduction.add_pivots = (lambda red, columns: None) if mode == "unreduced" else add_pivots
    try:
        complexes.cochain_complex(R).cohomology()
    except InvariantError as exc:
        print(exc.stage, exc.invariant)
"""
BROKEN_COHOMOLOGY = {
    "own-row": "complexes.cohomology a representative of H^1 does not end at its own row with 1",
    "rank": "complexes.cohomology Euler-Poincare mismatch",
    "unreduced": "complexes.cohomology a cocycle of degree 0 does not reduce to zero",
}


_BREAK_ACTION = """
import json, sys
from swanss.cli import main
from swanss.complexes import EquivariantCochainComplex
from swanss.corpus import build_circle

# T^3 = 1 on the cochains of the circle, but (2T)^3 = 8T^3 = 2 != 1 mod 3
act = EquivariantCochainComplex.apply_action
EquivariantCochainComplex.apply_action = lambda C, l, vectors: 2 * act(C, l, vectors) % C.p
with open(sys.argv[1], "w") as fh:
    json.dump(build_circle(3).to_json(), fh)
print(main(["analyze", sys.argv[1]]))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_action_of_wrong_order_is_an_internal_error(flags, tmp_path):
    # an action on H^l that is not of order p is the program's fault, not
    # the input's: exit 3 (InvariantError), not 2 (ValueError)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, *flags, "-c", _BREAK_ACTION, str(tmp_path / "circle.json")],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == "3\n", proc.stderr
    assert proc.stderr == ("internal error: complexes.cohomology: "
                           "the action on H^0: action does not have order dividing p\n")


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_broken_cohomology_raises_at_its_stage(flags):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    modes = sorted(BROKEN_COHOMOLOGY)
    proc = subprocess.run([sys.executable, *flags, "-c", _BREAK_COHOMOLOGY, *modes],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == "".join(BROKEN_COHOMOLOGY[m] + "\n" for m in modes), proc.stderr
