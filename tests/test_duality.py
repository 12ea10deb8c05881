import contextlib
import io
import itertools
import json

import pytest

from swanss.cli import main

from swanss.duality import (
    check_betti_chi_mod4,
    check_pd,
    duality_report,
    mod4_audit,
    pd_propagation_audit,
    tower_terms,
    verify_bryan,
    verify_chi_t,
    verify_sokolov,
    verify_t_inequality,
    verify_theorem_zp,
    verify_torus_congruence,
)
from swanss.corpus import build_bredon_betti, build_mp_profile, build_seifert_betti
from swanss.complexes import (
    SimplicialGComplex,
    cochain_complex,
    cohomology_gmodules,
    fixed_subcomplex,
)
from swanss.gmodule import CohomologyProfile
from swanss.pages import check_zero_row
from swanss.synthetic import load_synthetic_page


def _pd_page_json(n=2, window=12, degenerate=False, odd_rank_skew=False):
    dims = {}
    for k in range(0, window + 1, 2):
        dims[f"{k},0"] = 1
        dims[f"{k},{n}"] = 1
    products = {}
    for k in range(0, window + 1, 2):
        for k2 in range(0, window + 1, 2):
            if k + k2 > window:
                continue
            val = "0" if degenerate else "1"
            products[f"({k},0)x({k2},{n})"] = [[[val]]]
            products[f"({k},{n})x({k2},0)"] = [[[val]]]
            products[f"({k},0)x({k2},0)"] = [[["1"]]]
            products[f"({k},{n})x({k2},{n})"] = [[["0"]]]
    diffs = {"2": {}}
    if odd_rank_skew:
        # a single-handed rank-1 differential out of the middle row
        dims_mid = {f"{k},1": 1 for k in range(0, window + 1, 2)}
        dims.update(dims_mid)
        diffs["2"] = {f"{k},1": [["1"]] for k in range(0, window - 1, 2)}
    return {
        "field_char": 0,
        "n": n,
        "window": window,
        "dims": dims,
        "differentials": diffs,
        "products": products,
    }


def test_pd_on_rational_polynomial_page():
    page = load_synthetic_page(json.dumps(_pd_page_json()))
    flag = check_pd(page.term(2), 2)
    assert flag.holds is True
    assert flag.threshold == 0


def test_pd_degenerate_pairing_reported():
    page = load_synthetic_page(json.dumps(_pd_page_json(degenerate=True)))
    flag = check_pd(page.term(2), 2)
    assert flag.holds is False
    coords = {(v.k, v.l, v.k2, v.l2) for v in flag.violations}
    assert (0, 0, 0, 2) in coords or (0, 0, 2, 2) in coords


def test_wpd_and_sspd_on_semifree_join(pipelines):
    tower = pipelines("join-5-1-0").tower
    terms = tower_terms(tower)
    report = duality_report(terms, tower.n)
    for r in range(2, 6):
        assert report[r]["wpd"].holds is True
        assert report[r]["sspd"].holds is True
        assert report[r]["pd"].holds is False  # odd columns are nonzero over F_p


def test_wpd_on_fixed_point_corpus_actions(pipelines):
    for name in ("join-3-1-0", "suspension-3", "suspension-5", "circle-trivial-3"):
        tower = pipelines(name).tower
        report = duality_report(tower_terms(tower), tower.n)
        for r, flags in report.items():
            assert flags["wpd"].holds is True, (name, r)


def test_propagation_audit_clean_on_corpus(pipelines):
    for name in ("join-3-1-0", "join-5-1-0", "suspension-3"):
        tower = pipelines(name).tower
        audit = pd_propagation_audit(tower_terms(tower), tower.n, check_zero_row(tower))
        assert audit["status"] == "done"
        assert audit["violations"] == []
        assert audit["checked"] > 0


def test_propagation_audit_skips_free_actions(pipelines):
    tower = pipelines("circle-3").tower
    audit = pd_propagation_audit(tower_terms(tower), tower.n, check_zero_row(tower))
    assert audit["status"] == "not-applicable"


def test_mod4_audit_semifree(pipelines):
    tower = pipelines("join-5-1-0").tower
    verdict = mod4_audit(tower_terms(tower), tower.n)
    assert verdict.verdict == "pass"
    assert verdict.lhs == 2 and verdict.rhs == 2
    assert any("skew" in note for note in verdict.notes)


def test_mod4_audit_rejects_odd_skew_rank():
    # even-n synthetic page with a forced skew pairing of odd rank must be
    # rejected at the hypothesis stage or detected
    page = load_synthetic_page(json.dumps(_pd_page_json(odd_rank_skew=True)))
    terms = {2: page.term(2), 3: page.term(2)}
    verdict = mod4_audit(terms, 2)
    assert verdict.verdict in ("not-applicable", "fail")


def test_mod4_audit_point():
    from swanss.complexes import SimplicialGComplex
    from swanss.pages import compute_pages
    from swanss.swan import SwanDoubleComplex

    pt = SimplicialGComplex(3, 1, [0], [(0,)])
    tower = compute_pages(SwanDoubleComplex(cochain_complex(pt)))
    verdict = mod4_audit(tower_terms(tower), 0)
    assert verdict.verdict == "pass"
    assert verdict.lhs == 1 and verdict.rhs == 1


def _profiles(pipe):
    profile = cohomology_gmodules(pipe.C)
    FX = fixed_subcomplex(pipe.R)
    if FX.vertex_count:
        f_profile = cohomology_gmodules(cochain_complex(FX))
    else:
        f_profile = CohomologyProfile(pipe.K.p, [])
    return profile, f_profile


def test_theorem_zp_semifree_join(pipelines):
    profile, f_profile = _profiles(pipelines("join-5-1-0"))
    verdict = verify_theorem_zp(
        profile, f_profile, 3, fixed_nonempty=True, no_p_torsion=True, route="zp"
    )
    assert verdict.verdict == "pass"
    assert (verdict.lhs, verdict.rhs) == (2, 2)
    verdict2 = verify_theorem_zp(
        profile, f_profile, 3, fixed_nonempty=True, cond_holds=True, route="zp-fp"
    )
    assert verdict2.verdict == "pass"


def test_theorem_zp_mp_profile_not_applicable():
    for p in (3, 5):
        profile = build_mp_profile(p)
        f_profile = CohomologyProfile.from_multiplicities(p, [{1: 1}, {1: 1}])
        verdict = verify_theorem_zp(
            profile, f_profile, 3, fixed_nonempty=True, no_p_torsion=True, route="zp"
        )
        assert verdict.verdict == "not-applicable"
        failed = [h.name for h in verdict.hypotheses if not h.passed]
        assert "action on cohomology is nice" in failed


def test_theorem_zp_p2_excluded():
    profile = build_mp_profile(2)
    f_profile = CohomologyProfile.from_multiplicities(2, [{1: 1}, {1: 1}])
    verdict = verify_theorem_zp(
        profile, f_profile, 3, fixed_nonempty=True, no_p_torsion=True, route="zp"
    )
    assert verdict.verdict == "not-applicable"


def test_chi_t_validators(pipelines):
    profile, f_profile = _profiles(pipelines("join-5-1-0"))
    verdict = verify_chi_t(profile, f_profile, no_p_torsion=True)
    assert verdict.verdict == "pass" and verdict.lhs == verdict.rhs == 0
    # suspension sphere: chi_t(2 points) = 2 = chi_t(S^2)
    profile2, f_profile2 = _profiles(pipelines("suspension-3"))
    verdict2 = verify_chi_t(profile2, f_profile2, no_p_torsion=True)
    assert verdict2.verdict == "pass" and verdict2.lhs == 2


def test_chi_t_trivial_action(pipelines):
    profile, f_profile = _profiles(pipelines("circle-trivial-3"))
    verdict = verify_chi_t(profile, f_profile, no_p_torsion=True)
    assert verdict.verdict == "pass"


def test_t_inequality(pipelines):
    profile, f_profile = _profiles(pipelines("join-5-1-0"))
    for k in range(4):
        verdict = verify_t_inequality(profile, f_profile, k)
        assert verdict.verdict == "pass"
    empty = CohomologyProfile(5, [])
    assert verify_t_inequality(profile, empty, 0).verdict == "pass"


def test_sokolov(pipelines):
    profile, f_profile = _profiles(pipelines("join-5-1-0"))
    verdict = verify_sokolov(profile, 1)
    assert verdict.verdict == "pass"
    # s = 0 is gated, not failed
    assert verify_sokolov(profile, 0).verdict == "not-applicable"


def test_torus_congruence_seifert_family():
    for b, s in ((1, 2), (2, 1), (3, 2), (3, 4)):
        data = build_seifert_betti(b, s)
        verdict = verify_torus_congruence(**data)
        assert verdict.verdict == "pass", (b, s)


def test_torus_congruence_bredon_not_applicable():
    data = build_bredon_betti()
    verdict = verify_torus_congruence(**data)
    assert verdict.verdict == "not-applicable"
    assert (sum(data["betti_m"]) - sum(data["betti_f"])) % 4 != 0


def test_torus_even_n_sphere():
    verdict = verify_torus_congruence([1, 0, 1], [2], 2, True)
    assert verdict.verdict == "pass"


def test_seifert_constructor_validates():
    with pytest.raises(ValueError):
        build_seifert_betti(2, 2)  # parity violated


def test_bryan_suspension(pipelines):
    pipe = pipelines("suspension-5")
    profile = cohomology_gmodules(pipe.C)
    verdict = verify_bryan(profile, 2)
    assert verdict.verdict == "pass"
    assert verdict.rhs == 2


def test_bryan_rejects_disk():
    disk = CohomologyProfile.from_multiplicities(3, [{1: 1}, {}, {}])
    verdict = verify_bryan(disk, 1)
    assert verdict.verdict == "not-applicable"


def test_betti_chi_mod4_even_dim():
    assert check_betti_chi_mod4([1, 0, 1])       # S^2
    assert check_betti_chi_mod4([1, 4, 1])       # genus-2 surface: 6 = -2 + 8


def test_odd_vanishing_on_synthetic_terms(pipelines):
    from swanss.duality import check_odd_vanishing_terms

    # computed pages of a 3-manifold action: holds
    tower = pipelines("join-3-1-0").tower
    assert check_odd_vanishing_terms(tower_terms(tower), tower.n)
    # synthetic page with a nonzero differential on an odd page from
    # column >= n: violated
    data = {
        "field_char": 5,
        "n": 2,
        "window": 10,
        "dims": {f"{k},{l}": 1 for k in range(11) for l in (0, 2)},
        "differentials": {"3": {"4,2": [[1]]}},
    }
    page = load_synthetic_page(json.dumps(data))
    assert not check_odd_vanishing_terms({3: page.term(3)}, 2)


def test_duality_propagates_from_e2(pipelines):
    # with a surviving zeroth row, weak duality at E_2 forces it at every
    # later page, and strong duality propagates across even pages; a
    # violation would contradict a proved proposition
    for name in ("join-3-1-0", "join-5-1-0", "suspension-3", "circle-trivial-3"):
        tower = pipelines(name).tower
        if not check_zero_row(tower):
            continue
        report = duality_report(tower_terms(tower), tower.n)
        rs = sorted(report)
        if report[rs[0]]["wpd"].holds:
            assert all(report[r]["wpd"].holds for r in rs), name
        for r in rs:
            if r % 2 == 0 and r + 1 in report and report[r]["sspd"].holds:
                assert report[r + 1]["sspd"].holds, name


def test_sspd_implies_wpd_assertion(pipelines):
    tower = pipelines("suspension-3").tower
    report = duality_report(tower_terms(tower), tower.n)
    for flags in report.values():
        if flags["sspd"].holds:
            assert flags["wpd"].holds


@pytest.mark.parametrize("p", [5, 7])
def test_sspd_undecided_without_mixed_parity_pairs(tmp_path, p):
    # the 2-skeleton of the (p-1)-simplex, Z/p rotating its vertices: E_2
    # passes strong duality only at a threshold where the one pair of
    # columns left in the window is (even, even), and weak duality has no
    # pair there at all
    K = SimplicialGComplex.from_maximal(
        p, p, [(v + 1) % p for v in range(p)], list(itertools.combinations(range(p), 3))
    )
    path = tmp_path / f"skeleton-{p}-2.json"
    path.write_text(json.dumps(K.to_json()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", str(path)]) == 0
    report = json.loads(out.getvalue())
    sspd = report["duality"]["2"]["sspd"]
    assert sspd["holds"] is None and sspd["note"] == "no mixed-parity pair in window"
    for flags in report["duality"].values():
        if flags["sspd"]["holds"]:
            assert flags["wpd"]["holds"]


def test_verdict_json_shape():
    verdict = verify_torus_congruence([1, 1, 1, 1], [1, 1], 3, True)
    data = verdict.to_json()
    for key in ("theorem", "hypotheses", "lhs", "rhs", "modulus", "verdict"):
        assert key in data
    assert all({"name", "pass", "evidence"} <= set(h) for h in data["hypotheses"])
