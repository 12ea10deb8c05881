"""End-to-end analysis of one input, emitting a deterministic report.

The report is plain JSON-able data: identical input yields byte-identical
serialized output (no timestamps, sorted keys, fixed version string).
"""

from __future__ import annotations

import hashlib
import json

from . import __version__
from .complexes import (
    EquivariantCochainComplex,
    SimplicialGComplex,
    betti_numbers,
    cochain_complex,
    cohomology_gmodules,
    fixed_subcomplex,
    quotient_numbers,
    validate_and_regularize,
)
from .duality import (
    duality_report,
    mod4_audit,
    pd_propagation_audit,
    tower_terms,
    verify_betti_chi,
    verify_chi_t,
    verify_sokolov,
    verify_t_inequality,
    verify_theorem_zp,
    verify_torus_congruence,
)
from .gmodule import CohomologyProfile, chi_t, t_sum
from .linalg import rank_mod
from .pages import check_odd_page_vanishing, check_zero_row, compute_pages
from .swan import SwanDoubleComplex


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def digest_of(data) -> str:
    if isinstance(data, (bytes, bytearray)):
        blob = bytes(data)
    else:
        blob = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _profile_json(profile: CohomologyProfile) -> dict:
    return {
        "betti": profile.betti,
        "decompositions": [dec.to_json() for dec in profile.decompositions],
        "t_numbers": profile.t_numbers,
        "t_sum": t_sum(profile),
        "chi_t": chi_t(profile),
        "nice": profile.is_nice(),
    }


def pd_space_check(C: EquivariantCochainComplex) -> dict:
    """Connectedness, top-degree one-dimensionality, and perfect cup pairings."""
    n = C.top_degree
    dims = C.cohomology_dims()
    pairings = {}
    ok = dims[0] == 1 and dims[n] == 1
    for l in range(n + 1):
        mat = C.cohomology_cup_pairing(l, n - l)
        rows, cols = mat.shape
        perfect = rows == cols and rank_mod(mat, C.p) == rows
        pairings[f"{l},{n - l}"] = {"shape": list(mat.shape), "perfect": perfect}
        ok = ok and perfect
    return {"is_pd_space": ok, "formal_dimension": n, "pairings": pairings}


def fixed_profile(FX: SimplicialGComplex) -> CohomologyProfile:
    """The profile of a fixed set: G acts trivially on it, so every degree
    is its Betti number of trivial summands."""
    return CohomologyProfile.from_multiplicities(FX.p, [{1: b} for b in betti_numbers(FX)])


def fixed_circle_count(betti_f: list[int]) -> int | None:
    """Number of circles if the fixed set is a disjoint union of circles."""
    if not betti_f or betti_f[0] == 0:
        return 0 if not betti_f or sum(betti_f) == 0 else None
    padded = betti_f + [0, 0]
    if padded[0] == padded[1] and not any(padded[2:]):
        return padded[0]
    return None


def analyze_complex(
    K: SimplicialGComplex,
    k_max: int | None = None,
    r_max: int | None = None,
    *,
    name: str = "",
    no_p_torsion: bool = False,
    input_bytes: bytes | None = None,
) -> dict:
    """Full pipeline: regularize, profiles, Swan complex, pages, verdicts."""
    digest_source = input_bytes if input_bytes is not None else K.to_json()
    R = validate_and_regularize(K)
    subdivisions = 0 if R is K else 1

    C = cochain_complex(R)
    n = C.top_degree if C.top_degree >= 0 else 0
    profile = cohomology_gmodules(C)
    pd_info = pd_space_check(C)

    FX = fixed_subcomplex(R)
    fixed_empty = FX.vertex_count == 0
    f_profile = fixed_profile(FX)
    fixed_betti = f_profile.betti

    quotient_f, quotient_betti = quotient_numbers(R)
    quotient_chi = sum((-1) ** d * f for d, f in enumerate(quotient_f))
    chi_formula_ok = (
        R.euler_characteristic() - FX.euler_characteristic()
        == K.p * (quotient_chi - FX.euler_characteristic())
    )

    dc = SwanDoubleComplex(C, k_max)
    tot_dims = dc.total_cohomology_dims()
    tower = compute_pages(dc, r_max)
    terms = tower_terms(tower)
    zero_row = check_zero_row(tower)
    odd_vanishing = check_odd_page_vanishing(tower)
    duality = duality_report(terms, n)
    audit = pd_propagation_audit(terms, n, zero_row, duality)
    mod4 = mod4_audit(terms, n, duality)

    circles = fixed_circle_count(fixed_betti)
    verdicts = []
    verdicts.append(
        verify_theorem_zp(
            profile, f_profile, n,
            fixed_nonempty=not fixed_empty,
            pd_space=pd_info["is_pd_space"],
            no_p_torsion=no_p_torsion,
            route="zp",
        ).to_json()
    )
    verdicts.append(
        verify_theorem_zp(
            profile, f_profile, n,
            fixed_nonempty=not fixed_empty,
            pd_space=pd_info["is_pd_space"],
            cond_holds=odd_vanishing,
            route="zp-fp",
        ).to_json()
    )
    verdicts.append(verify_chi_t(profile, f_profile, no_p_torsion=no_p_torsion).to_json())
    for k in range(n + 1):
        verdicts.append(verify_t_inequality(profile, f_profile, k).to_json())
    if n == 3 and circles:
        verdicts.append(
            verify_sokolov(profile, circles, pd_space=pd_info["is_pd_space"]).to_json()
        )
    if n % 2 == 0 and pd_info["is_pd_space"]:
        verdicts.append(verify_betti_chi(profile.betti, n).to_json())

    report = {
        "tool": {"name": "swanss", "version": __version__},
        "input": {"name": name, "digest": digest_of(digest_source), "p": K.p},
        "complex": {
            "f_vector": K.f_vector(),
            "regularized_f_vector": R.f_vector(),
            "subdivisions": subdivisions,
            "order_compatible": R.is_order_compatible(),
            "regular": R.is_regular(),
            "free": R.is_free(),
        },
        "profile": _profile_json(profile),
        "pd_space": pd_info,
        "fixed": {
            "empty": fixed_empty,
            "f_vector": FX.f_vector() if not fixed_empty else [],
            "betti": fixed_betti,
            "circles": circles,
            "profile": _profile_json(f_profile) if not fixed_empty else None,
        },
        "quotient": {
            "f_vector": quotient_f,
            "betti": quotient_betti,
            "chi_formula_holds": chi_formula_ok,
        },
        "swan": {
            "k_max": dc.k_max,
            "trusted_total_degree": dc.trusted_total_limit,
            "tot_dims": tot_dims,
        },
        "pages": {
            str(r): {
                "trusted_k": tower.pages[r].trusted_k,
                "dims": tower.pages[r].dims_json(),
            }
            for r in range(1, tower.r_max + 1)
        },
        "zero_row_survives": zero_row,
        "odd_differentials_vanish": odd_vanishing,
        "duality": {
            str(r): {variant: flag.to_json() for variant, flag in flags.items()}
            for r, flags in duality.items()
        },
        "audits": {
            "propagation": audit,
            "mod4": mod4.to_json(),
        },
        "verdicts": verdicts,
    }
    return report


def analyze_profile_entry(
    profile: CohomologyProfile,
    *,
    name: str,
    n: int,
    fixed_scenarios: list[dict] | None = None,
) -> dict:
    """Module-level entry: theorem validators on a declared profile.

    Used for spaces shipped as algebraic cohomology data; the t-duality
    t^i = t^(n-i) of a duality space is recorded as a self-check.
    """
    t = profile.t_numbers
    t_dual = all(t[i] == t[n - i] for i in range(n + 1))
    verdicts = []
    for scenario in fixed_scenarios or []:
        f_profile = CohomologyProfile.from_multiplicities(
            profile.p, scenario.get("fixed_multiplicities", [])
        )
        verdicts.append(
            verify_theorem_zp(
                profile,
                f_profile,
                n,
                fixed_nonempty=scenario.get("fixed_nonempty", False),
                pd_space=True,
                no_p_torsion=scenario.get("no_p_torsion", False),
                route="zp",
            ).to_json()
        )
    return {
        "tool": {"name": "swanss", "version": __version__},
        "input": {"name": name, "digest": digest_of(profile.to_json()), "p": profile.p},
        "profile": _profile_json(profile),
        "t_duality_symmetric": t_dual,
        "verdicts": verdicts,
    }


def analyze_betti_entry(
    betti_m: list[int], betti_f: list[int], n: int, fixed_nonempty: bool, *, name: str
) -> dict:
    verdict = verify_torus_congruence(betti_m, betti_f, n, fixed_nonempty)
    return {
        "tool": {"name": "swanss", "version": __version__},
        "input": {
            "name": name,
            "digest": digest_of({"betti_m": betti_m, "betti_f": betti_f, "n": n}),
        },
        "betti_m": betti_m,
        "betti_f": betti_f,
        "n": n,
        "verdicts": [verdict.to_json()],
    }
