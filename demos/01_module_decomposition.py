"""Modules over F_p[Z/p]: decomposition, cohomology, duality.

The group ring F_p[Z/p] = F_p[t]/(t-1)^p has exactly p indecomposable
modules V_1, ..., V_p (V_d has dimension d; V_1 is trivial, V_p free).
This walk-through builds modules, recovers their summands from the ranks
of (t-1)^d, tabulates cyclic-group cohomology, and checks the duality
statement: a non-degenerate equivariant pairing forces equal summands.
"""

import numpy as np

from swanss import (
    GModule,
    check_dual_pairing,
    decompose,
    group_cohomology,
    is_nice,
    module_from_multiplicities,
)
from swanss.linalg import FactoredSolve, matmul_mod, rank_mod

p = 5

# V_2 + V_1 + V_5 over F_5, then hide the structure with a random change
# of basis and recover it.
module = module_from_multiplicities(p, {2: 1, 1: 1, 5: 1})
print("built module of dim", module.dim, "->", decompose(module))

rng = np.random.default_rng(0)
g = rng.integers(0, p, (module.dim, module.dim))
while rank_mod(g, p) < module.dim:
    g = rng.integers(0, p, (module.dim, module.dim))
inv = FactoredSolve(g, p).solve_many(np.eye(module.dim, dtype=np.int64))
conjugated = GModule(p, matmul_mod(matmul_mod(g, module.action, p), inv, p))
print("after a random change of basis:", decompose(conjugated))
print("nice (only trivial and free summands)?", is_nice(conjugated))

# Cohomology of Z/p with coefficients in each indecomposable: dimension 1
# in every degree except that the free module dies above degree 0.
print("\nH^k(Z/p, V_d) dimensions, p =", p)
print("d\\k", *range(5))
for d in range(1, p + 1):
    vd = module_from_multiplicities(p, {d: 1})
    print(f"V_{d} ", *[group_cohomology(vd, k).dim for k in range(5)])

# The evaluation pairing between V_3 and its dual module is perfect and
# equivariant, which forces the two decompositions to agree.
v3 = module_from_multiplicities(p, {3: 1})
print("\ndual pairing on V_3 x V_3*:",
      check_dual_pairing(v3, v3.dual(), np.eye(3, dtype=np.int64)))
print("decomposition of the dual:", decompose(v3.dual()))
