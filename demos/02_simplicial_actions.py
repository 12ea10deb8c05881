"""Simplicial Z/p actions: regularization, fixed sets, quotients.

A rotation of a polygon is a perfectly good simplicial action, but its
wraparound edge reverses the vertex order, and its orbit quotient is not
a simplicial complex.  One barycentric subdivision (barycenters ordered
by dimension) repairs the ordering; the quotient machinery subdivides
once more on its own when orbits of simplices do not yet form a complex.
"""

from swanss import (
    betti_numbers,
    cochain_complex,
    cohomology_gmodules,
    fixed_subcomplex,
    quotient_complex,
    validate_and_regularize,
)
from swanss.corpus import build_circle, build_sphere_join, build_suspension_sphere

# the 3-gon circle with a one-step rotation
tri = build_circle(3)
print("3-gon order-compatible?", tri.is_order_compatible())
print("  edge {0,2} maps to", [tri.generator[v] for v in (0, 2)], "(order reversed)")
R = validate_and_regularize(tri)
print("after regularization: f-vector", R.f_vector(),
      "order-compatible", R.is_order_compatible(), "regular", R.is_regular())

Q = quotient_complex(R)
print("quotient f-vector", Q.f_vector(), "Betti", betti_numbers(Q),
      "(a circle again, as it must be)")
chi, chi_f, chi_q = R.euler_characteristic(), 0, Q.euler_characteristic()
print("orbit-count formula: chi(X) - chi(X^G) = p (chi(X/G) - chi(X^G)):",
      chi - chi_f == 3 * (chi_q - chi_f))

# the 3-sphere as a join of two pentagons, rotating only the first factor:
# the fixed set is the untouched second circle
join = build_sphere_join(5, 1, 0)
RJ = validate_and_regularize(join)
C = cochain_complex(RJ)
print("\njoin of two 5-gons: cochain dims", C.dims, "cohomology", C.cohomology_dims())
FX = fixed_subcomplex(RJ)
print("fixed subcomplex Betti:", betti_numbers(FX), "(one circle)")
profile = cohomology_gmodules(C)
print("module structure per degree:", [str(dec) for dec in profile.decompositions])
print("t-numbers (dim H^2(Z/p, H^i)):", profile.t_numbers)

# the suspension sphere keeps its two poles fixed
S2 = validate_and_regularize(build_suspension_sphere(3))
print("\nsuspension 2-sphere fixed points:", betti_numbers(fixed_subcomplex(S2)))
C2 = cochain_complex(S2)
print("cup pairing H^0 x H^2 -> H^2:", C2.cohomology_cup_pairing(0, 2).tolist(),
      "(perfect: this is a duality space)")
