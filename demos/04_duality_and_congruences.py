"""Duality on pages and the congruence validators.

Every page of the spectral sequence of an action on a duality space with
a fixed point satisfies weak duality (pairings perfect for columns of
different parity), and strong duality for nice actions in dimension at
most 3.  Those facts feed congruences between the space and its fixed
set, all of which are hypothesis-gated: counterexamples come out
"not-applicable", never "fail".
"""

from swanss import (
    PageTower,
    check_zero_row,
    cochain_complex,
    cohomology_gmodules,
    duality_report,
    fixed_subcomplex,
    mod4_audit,
    pd_propagation_audit,
    tower_terms,
    validate_and_regularize,
    verify_sokolov,
    verify_theorem_zp,
    verify_torus_congruence,
)
from swanss.corpus import (
    build_bredon_betti,
    build_mp_profile,
    build_seifert_betti,
    build_sphere_join,
)
from swanss.gmodule import CohomologyProfile
from swanss.swan import SwanDoubleComplex

K = build_sphere_join(5, 1, 0)
R = validate_and_regularize(K)
C = cochain_complex(R)
tower = PageTower(SwanDoubleComplex(C))
terms = tower_terms(tower)

print("duality flags per page (semifree 3-sphere, p = 5):")
duality = duality_report(terms, 3)
for r, flags in duality.items():
    print(f"  page {r}:",
          " ".join(f"{v}={f.holds} (N={f.threshold})" for v, f in flags.items()))

# the audits take the flags just computed
audit = pd_propagation_audit(terms, 3, check_zero_row(tower), duality)
print("propagation + rank-symmetry audit:", audit["status"],
      f"({audit['checked']} checks, {len(audit['violations'])} violations)")
print("column sums mod 4 across pages:", mod4_audit(terms, 3, duality).verdict)

profile = cohomology_gmodules(C)
f_profile = cohomology_gmodules(cochain_complex(fixed_subcomplex(R)))
verdict = verify_theorem_zp(profile, f_profile, 3, fixed_nonempty=True,
                            no_p_torsion=True, route="zp")
print(f"\nt-sum congruence: {verdict.lhs} = {verdict.rhs} mod 4 -> {verdict.verdict}")
print("fixed-circle parity (one circle, t^1 = 0):",
      verify_sokolov(profile, 1).verdict)

# the surgered connected sum of S^2 x S^1's: H^1 is the (p-1)-dimensional
# indecomposable, the action is not nice, and the validator is gated
mp = build_mp_profile(5)
gated = verify_theorem_zp(mp, CohomologyProfile.from_multiplicities(5, [{1: 1}, {1: 1}]),
                          3, fixed_nonempty=True, no_p_torsion=True, route="zp")
print("\nnon-nice counterexample:", gated.verdict,
      "| failed hypothesis:",
      [h.name for h in gated.hypotheses if not h.passed])

# circle actions on 3-manifolds, Betti data only
print("\nSeifert family (b, s):")
for b, s in ((1, 2), (2, 1), (3, 2), (3, 4)):
    v = verify_torus_congruence(**build_seifert_betti(b, s))
    print(f"  (b={b}, s={s}): {v.lhs} = {v.rhs} mod 4 -> {v.verdict}")
bredon = verify_torus_congruence(**build_bredon_betti())
print("product-of-spheres circle action (sums 6 vs 8):", bredon.verdict,
      "(degree condition fails, as it must)")
