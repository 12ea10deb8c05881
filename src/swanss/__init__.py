"""Exact equivariant cohomology of Z/p actions on finite simplicial
complexes: module decomposition over F_p[Z/p], the Swan double complex
and its multiplicative spectral sequence, duality page conditions, and
congruence validators."""

__version__ = "0.1.0"

from .errors import InvariantError
from .linalg import Subquotient
from .gmodule import (
    CohomologyProfile,
    Decomposition,
    GModule,
    check_dual_pairing,
    chi_t,
    decompose,
    group_cohomology,
    is_nice,
    module_from_multiplicities,
    t_sum,
)
from .complexes import (
    EquivariantCochainComplex,
    SimplicialGComplex,
    barycentric_subdivision,
    betti_numbers,
    cochain_complex,
    cohomology_gmodules,
    fixed_subcomplex,
    load_complex_json,
    quotient_complex,
    validate_and_regularize,
)
from .swan import SwanDoubleComplex
from .pages import (
    PageClass,
    PageTower,
    check_odd_page_vanishing,
    check_zero_row,
    compute_pages,
)
from .duality import (
    duality_flags,
    duality_report,
    mod4_audit,
    pd_propagation_audit,
    tower_terms,
    verify_betti_chi,
    verify_bryan,
    verify_chi_t,
    verify_sokolov,
    verify_t_inequality,
    verify_theorem_zp,
    verify_torus_congruence,
)
from .synthetic import SyntheticPage, load_synthetic_page
