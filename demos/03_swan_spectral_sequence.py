"""The Swan double complex and its spectral sequence.

Columns of the double complex are copies of the equivariant cochain
complex, with horizontal maps alternating (t - 1) and the norm.  The
total complex computes equivariant cohomology; the column filtration
gives a multiplicative spectral sequence with E_2 = H^k(Z/p, H^l(X)).

Three behaviours, one per space:
  * free circle action: everything collapses onto the quotient circle,
    with d_2 killing both rows beyond degree 1;
  * semifree 3-sphere (fixed circle): the sequence degenerates at E_2
    and the total dims localize onto the fixed set: 1,1,1 then 2 forever;
  * trivial action: the total dims are the running sum of Betti numbers.
"""

from swanss import (
    PageTower,
    check_odd_page_vanishing,
    check_zero_row,
    cochain_complex,
    validate_and_regularize,
)
from swanss.corpus import build_circle, build_sphere_join, build_trivial_circle
from swanss.swan import SwanDoubleComplex


def show(name, K):
    R = validate_and_regularize(K)
    dc = SwanDoubleComplex(cochain_complex(R))
    tower = PageTower(dc)
    tot = dc.total_cohomology_dims()
    print(f"== {name}  (p = {K.p}, window K_max = {dc.k_max})")
    print("   total dims:", tot[:10], "...")
    page2 = tower.pages[2]
    for l in range(tower.n, -1, -1):
        print(f"   E_2 row {l}:", [page2.dim(k, l) for k in range(8)])
    print("   zeroth row survives:", check_zero_row(tower),
          "| odd-page differentials vanish:", check_odd_page_vanishing(tower))
    last = tower.pages[tower.r_max]
    print(f"   E_{tower.r_max} column sums at s = 0..7:",
          [tower.antidiagonal_sum(tower.r_max, s) for s in range(8)])
    print()
    return tower


show("free circle", build_circle(3))
tower = show("semifree 3-sphere, fixed circle", build_sphere_join(5, 1, 0))
show("circle with trivial action", build_trivial_circle(3))

# the multiplicative structure: pair a class in an even column against
# one in an odd column of complementary row; the product lands in the
# one-dimensional top-row cell
a = tower.basis_class(2, 4, 0, 0)
b = tower.basis_class(2, 5, 3, 0)
print("pairing E_2^(4,0) x E_2^(5,3) -> E_2^(9,3):",
      tower.product(2, a, b).coords.tolist(), "(nonzero: non-degenerate)")
odd1, odd2 = tower.basis_class(2, 3, 0, 0), tower.basis_class(2, 5, 0, 0)
print("odd-odd product vanishes (p odd, nice action):",
      tower.product(2, odd1, odd2).is_zero())
