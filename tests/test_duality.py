import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swanss import duality
from swanss.cli import main

from swanss.duality import (
    DualityFlag,
    PairingViolation,
    _pairing_status,
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
from swanss.corpus import build_bredon_betti, build_mp_profile, build_seifert_betti
from swanss.complexes import (
    SimplicialGComplex,
    cochain_complex,
    cohomology_gmodules,
    fixed_subcomplex,
)
from swanss.gmodule import CohomologyProfile, group_cohomology, module_from_multiplicities
from swanss.pages import check_odd_page_vanishing, check_zero_row
from swanss.report import fixed_profile
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
    terms = load_synthetic_page(json.dumps(_pd_page_json()))
    flag = duality_flags(terms[2], 2)["pd"]
    assert flag.holds is True
    assert flag.threshold == 0


def test_pd_degenerate_pairing_reported():
    terms = load_synthetic_page(json.dumps(_pd_page_json(degenerate=True)))
    flag = duality_flags(terms[2], 2)["pd"]
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
        terms = tower_terms(tower)
        flags = duality_report(terms, tower.n)
        audit = pd_propagation_audit(terms, tower.n, check_zero_row(tower), flags)
        assert audit["status"] == "done"
        assert audit["violations"] == []
        assert audit["checked"] > 0


def test_propagation_audit_skips_free_actions(pipelines):
    tower = pipelines("circle-3").tower
    terms = tower_terms(tower)
    flags = duality_report(terms, tower.n)
    audit = pd_propagation_audit(terms, tower.n, check_zero_row(tower), flags)
    assert audit["status"] == "not-applicable"


def test_mod4_audit_semifree(pipelines):
    tower = pipelines("join-5-1-0").tower
    terms = tower_terms(tower)
    verdict = mod4_audit(terms, tower.n, duality_report(terms, tower.n))
    assert verdict.verdict == "pass"
    assert verdict.lhs == 2 and verdict.rhs == 2
    assert any("skew" in note for note in verdict.notes)


def test_mod4_audit_rejects_odd_skew_rank():
    # even-n synthetic page with a forced skew pairing of odd rank must be
    # rejected at the hypothesis stage or detected
    term = load_synthetic_page(json.dumps(_pd_page_json(odd_rank_skew=True)))[2]
    terms = {2: term, 3: term}
    verdict = mod4_audit(terms, 2, duality_report(terms, 2))
    assert verdict.verdict in ("not-applicable", "fail")


def test_mod4_audit_point():
    from swanss.complexes import SimplicialGComplex
    from swanss.pages import PageTower
    from swanss.swan import SwanDoubleComplex

    pt = SimplicialGComplex(3, 1, [0], [(0,)])
    tower = PageTower(SwanDoubleComplex(cochain_complex(pt)))
    terms = tower_terms(tower)
    verdict = mod4_audit(terms, 0, duality_report(terms, 0))
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


@pytest.mark.parametrize("name", ["circle-trivial-3", "join-3-1-0", "join-5-1-0", "suspension-3"])
def test_fixed_profile_from_betti_numbers(pipelines, name):
    # G acts trivially on the fixed set, so its Betti numbers give the
    # profile the equivariant cochain complex of FX gives
    FX = fixed_subcomplex(pipelines(name).R)
    assert FX.vertex_count
    assert fixed_profile(FX).to_json() == _profiles(pipelines(name))[1].to_json()


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


def test_bryan_counts_the_non_free_summands_of_h1():
    # genus 4 with H^1 = V_1 + V_2 + V_5 over F_5: H_1 is its dual
    h1 = {1: 1, 2: 1, 5: 1}
    surface = CohomologyProfile.from_multiplicities(5, [{1: 1}, h1, {1: 1}])
    rhs = 2 + group_cohomology(module_from_multiplicities(5, h1).dual(), 1).dim
    assert rhs == 4
    verdict = verify_bryan(surface, 4)
    assert (verdict.rhs, verdict.verdict) == (rhs, "pass")
    assert verify_bryan(surface, 3).verdict == "fail"


def test_bryan_rejects_disk():
    disk = CohomologyProfile.from_multiplicities(3, [{1: 1}, {}, {}])
    verdict = verify_bryan(disk, 1)
    assert verdict.verdict == "not-applicable"


def test_betti_chi_mod4_even_dim():
    assert verify_betti_chi([1, 0, 1], 2).verdict == "pass"  # S^2
    genus_two = verify_betti_chi([1, 4, 1], 2)                # 6 = -2 + 8
    assert (genus_two.lhs, genus_two.rhs, genus_two.verdict) == (6, -2, "pass")


def test_odd_page_vanishing_on_computed_pages(pipelines):
    # computed pages of a 3-manifold action: d_r = 0 on odd pages from column n
    assert check_odd_page_vanishing(pipelines("join-3-1-0").tower)


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


_BREAK_WPD = """
import json, sys
from swanss import duality
from swanss.cli import main
from swanss.corpus import build_circle
from swanss.errors import InvariantError
from swanss.pages import PageTower
from swanss.swan import SwanDoubleComplex
from swanss.complexes import cochain_complex, validate_and_regularize

real = duality.duality_flags
def broken(term, n):
    flags = real(term, n)
    flags["wpd"].holds = False
    return flags
duality.duality_flags = broken

K = build_circle(3)
tower = PageTower(SwanDoubleComplex(cochain_complex(validate_and_regularize(K))))
try:
    duality.duality_report(duality.tower_terms(tower), tower.n)
except InvariantError as exc:
    print("raised", exc.stage, sys.flags.optimize)
with open(sys.argv[1], "w") as fh:
    json.dump(K.to_json(), fh)
sys.exit(main(["analyze", sys.argv[1]]))
"""


def test_sspd_without_wpd_raises_under_optimize(tmp_path):
    # strong duality on the free circle's E_2, with weak duality forced to
    # fail: the implication is checked with asserts switched off too
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BREAK_WPD, str(tmp_path / "circle.json")],
        capture_output=True, text=True, env=env,
    )
    assert proc.stdout == "raised duality.report 1\n"
    assert proc.returncode == 3
    assert proc.stderr == (
        "internal error: duality.report: strong duality without weak duality on page 2\n"
    )


# -- the threshold search against a candidate-by-candidate reference --------


def _reference_column_pairs(variant, N, w):
    for k in range(w + 1):
        for k2 in range(w + 1):
            if k + k2 > w:
                continue
            if variant == "pd":
                if k % 2 or k2 % 2 or k < N or k2 < N:
                    continue
            elif variant == "wpd":
                if k <= N or k2 <= N or (k % 2) == (k2 % 2):
                    continue
            else:
                if k <= N or k2 <= N or (k % 2 and k2 % 2):
                    continue
            yield k, k2


def _reference_has_mixed_pair(N, w):
    return any((k + k2) % 2 for k, k2 in _reference_column_pairs("sspd", N, w))


def _reference_check_variant(term, n, N, variant):
    w = term.trusted_k
    out = []
    for k in range(N + 1, w + 1):
        if variant == "pd":
            if k % 2:
                for l in range(n + 1):
                    if term.dim(k, l):
                        out.append(PairingViolation(k, l, -1, -1, "odd column not zero"))
            else:
                for l in (0, n):
                    if term.dim(k, l) != 1:
                        out.append(
                            PairingViolation(k, l, -1, -1, f"dim {term.dim(k, l)} != 1")
                        )
        elif variant == "wpd":
            if k % 2 and term.dim(k, n) != 1:
                out.append(PairingViolation(k, n, -1, -1, f"dim {term.dim(k, n)} != 1"))
        else:
            if term.dim(k, n) != 1:
                out.append(PairingViolation(k, n, -1, -1, f"dim {term.dim(k, n)} != 1"))
    checked = 0
    for k, k2 in _reference_column_pairs(variant, N, w):
        for l in range(n + 1):
            checked += 1
            reason = _pairing_status(term, k, l, k2, n - l)
            if reason is not None:
                out.append(PairingViolation(k, l, k2, n - l, reason))
    return out, checked


def _reference_check_duality(term, n, variant):
    """The search as it was first written: one full scan per candidate N."""
    no_data, no_mixed = "no product data", "no mixed-parity pair in window"
    w = term.trusted_k
    if w < 3:
        return DualityFlag(variant, None, None, (0, w), note="trusted window too small")
    best_violations = None
    any_checked = False
    for cand in range(w - 2):
        violations, checked = _reference_check_variant(term, n, cand, variant)
        if checked == 0:
            break
        any_checked = True
        if not violations:
            if variant == "sspd" and not _reference_has_mixed_pair(cand, w):
                return DualityFlag(variant, None, None, (cand, w), note=no_mixed)
            return DualityFlag(variant, True, cand, (cand, w))
        if any(v.reason == no_data for v in violations):
            return DualityFlag(variant, None, None, (cand, w), violations,
                               note="product data unavailable")
        if best_violations is None:
            best_violations = violations
    if not any_checked:
        return DualityFlag(variant, None, None, (0, w), note="no qualifying pairs in window")
    return DualityFlag(variant, False, None, (0, w), best_violations or [])


@st.composite
def synthetic_terms(draw):
    """A synthetic page: random dimensions left of a column, a duality-like
    pattern (rows 0 and n, every column or even ones only, perhaps with
    noise) from it on, and product tables that are perfect, degenerate,
    missing or a mixture."""
    char = draw(st.sampled_from([0, 2, 3, 5]))
    w, n = draw(st.sampled_from(range(15))), draw(st.integers(0, 3))
    clean_from = draw(st.sampled_from(range(w // 2 + 2)))
    odd_columns = draw(st.booleans())
    noise = draw(st.sampled_from([0.0, 0.0, 0.05]))
    mode = draw(st.sampled_from(["perfect", "perfect", "degenerate", "missing", "mixed"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dims = {}
    for k in range(w + 1):
        for l in range(n + 1):
            if k < clean_from or rng.random() < noise:
                dims[(k, l)] = rng.choice([0, 0, 1, 1, 1, 2])
            else:
                dims[(k, l)] = int(l in (0, n) and (odd_columns or k % 2 == 0))
    entry = str if char == 0 else int
    products = {}
    for (k, l), d in dims.items():
        for k2 in range(w + 1 - k):
            if not d or dims.get((k2, n - l)) != d or dims.get((k + k2, n)) != 1:
                continue
            kind = rng.choice(["perfect"] * 6 + ["degenerate", "missing"]) if mode == "mixed" else mode
            if kind == "missing":
                continue
            table = [[[entry(int(i == j) if kind == "perfect" else rng.randrange(3))]
                      for j in range(d)] for i in range(d)]
            products[f"({k},{l})x({k2},{n - l})"] = table
    data = {
        "field_char": char, "n": n, "window": w,
        "dims": {f"{k},{l}": d for (k, l), d in dims.items() if d},
        "products": products,
    }
    return load_synthetic_page(json.dumps(data))[2], n


@settings(max_examples=200, deadline=None)
@given(synthetic_terms())
def test_threshold_search_matches_reference(case):
    term, n = case
    flags = duality_flags(term, n)
    assert list(flags) == ["pd", "wpd", "sspd"]
    for variant, got in flags.items():
        want = _reference_check_duality(term, n, variant)
        assert got.to_json() == want.to_json(), variant
        assert got.violations == want.violations, variant


def _count_statuses(monkeypatch):
    """Every `_pairing_status` call, keyed by (term, k, l, k2, l2)."""
    calls = []
    real = duality._pairing_status

    def counted(term, *pair):
        calls.append((id(term), *pair))
        return real(term, *pair)

    monkeypatch.setattr(duality, "_pairing_status", counted)
    return calls


def test_search_scans_once(monkeypatch):
    # one scan classifies each pair with a nonzero cell once for all three
    # variants, and leaves pairs of zero cells unclassified
    term = load_synthetic_page(json.dumps(_pd_page_json(degenerate=True)))[2]
    calls = _count_statuses(monkeypatch)
    flags = duality_flags(term, 2)
    assert calls and len(calls) == len(set(calls))
    assert all(term.dim(k, l) or term.dim(k2, l2) for _, k, l, k2, l2 in calls)
    assert [f.holds for f in flags.values()] == [False, False, False]
    calls.clear()
    assert duality_flags(term, 2)["pd"].to_json() == flags["pd"].to_json()
    assert calls == []  # the statuses are memoized on the term


def test_report_and_audit_classify_each_pair_once(pipelines, monkeypatch):
    calls = _count_statuses(monkeypatch)
    for name in ("join-3-1-0", "suspension-3"):
        tower = pipelines(name).tower
        terms = tower_terms(tower)
        calls.clear()
        flags = duality_report(terms, tower.n)
        audit = pd_propagation_audit(terms, tower.n, check_zero_row(tower), flags)
        assert audit["checked"] > 0 and audit["violations"] == []
        assert calls and len(calls) == len(set(calls)), name


@pytest.mark.parametrize("name", ["circle-3", "join-3-1-0", "suspension-3"])
def test_flags_of_computed_pages_match_reference(pipelines, name, monkeypatch):
    # the reference classifies every pair afresh, with no memo: the
    # served-class key must never stand a pair in for one of another status
    tower = pipelines(name).tower
    terms = tower_terms(tower)
    for r, term in terms.items():
        flags = duality_flags(term, tower.n)
        for variant, got in flags.items():
            want = _reference_check_duality(term, tower.n, variant)
            assert got.to_json() == want.to_json(), (name, r, variant)
            assert got.violations == want.violations, (name, r, variant)
    # and the propagation audit reads the same statuses as without the memo
    flags = duality_report(terms, tower.n)
    audit = pd_propagation_audit(terms, tower.n, check_zero_row(tower), flags)
    monkeypatch.setattr(duality, "_status", _pairing_status)
    fresh = tower_terms(tower)
    assert audit == pd_propagation_audit(fresh, tower.n, check_zero_row(tower),
                                         duality_report(fresh, tower.n))


def test_statuses_are_classified_once_per_served_class(pipelines, monkeypatch):
    tower = pipelines("join-3-1-0").tower
    terms = tower_terms(tower)
    by_id = {id(term): term for term in terms.values()}
    calls = _count_statuses(monkeypatch)
    asked = set()
    real = duality._status

    def recorded(term, *pair):
        asked.add((id(term), *pair))
        return real(term, *pair)

    monkeypatch.setattr(duality, "_status", recorded)
    flags = duality_report(terms, tower.n)
    pd_propagation_audit(terms, tower.n, check_zero_row(tower), flags)
    # a status is computed once per class in each memo; the pages a
    # converged page serves share its memo
    def key(i, *pair):
        return id(by_id[i].statuses), *by_id[i].class_key(*pair)

    keys = [key(*call) for call in calls]
    assert len(keys) == len(set(keys))
    assert set(keys) == {key(*call) for call in asked}
    assert len(calls) < len(asked)


def _fresh_flags(tower, r, n):
    """The flags of page r from a full scan on a memo of its own."""
    return duality_flags(duality.ComputedTerm(tower, r), n)


def _assert_same_flags(got, want, where):
    assert list(got) == list(want), where
    for variant in want:
        assert got[variant].to_json() == want[variant].to_json(), (where, variant)
        assert got[variant].violations == want[variant].violations, (where, variant)


@pytest.mark.parametrize("name", ["page-three-3", "join-3-1-0"])
def test_converged_pages_cut_the_scan_of_the_page_they_serve(pipelines, name, monkeypatch):
    # one scan per served page and n; each converged page cuts its own
    # window out of it and must read as a full scan of that page alone
    tower = pipelines(name).tower
    terms = tower_terms(tower)
    converged = [r for r, term in terms.items() if term.page.served.r != r]
    assert converged
    scans = []
    real = duality._scan

    def counted(term, n, w):
        scans.append((term.r, n, w))
        return real(term, n, w)

    monkeypatch.setattr(duality, "_scan", counted)
    ns = (tower.n, tower.n - 1)
    reports = {n: duality_report(terms, n) for n in ns}
    served = sorted({term.page.served.r for term in terms.values()})
    assert scans == [(r, n, terms[r].trusted_k) for n in ns for r in served]
    for n, report in reports.items():
        for r in terms:
            _assert_same_flags(report[r], _fresh_flags(tower, r, n), (name, n, r))
        assert any(report[r][v].violations for r in converged for v in report[r]), (name, n)
    # asked from the narrowest window up, every page still reads as its own scan
    backwards = tower_terms(tower)
    for r in sorted(backwards, reverse=True):
        _assert_same_flags(duality_flags(backwards[r], tower.n),
                           _fresh_flags(tower, r, tower.n), (name, "backwards", r))
    # each flag owns its list: emptying them leaves the scans as they were
    for flags in duality_report(terms, tower.n).values():
        for flag in flags.values():
            flag.violations.clear()
    for r, flags in duality_report(terms, tower.n).items():
        _assert_same_flags(flags, _fresh_flags(tower, r, tower.n), (name, "cleared", r))


def test_check_pd_with_another_n_matches_a_fresh_scan(pipelines, tmp_path, capsys):
    # `check-pd --n` keys the shared scans by its own n
    tower = pipelines("join-3-1-0").tower
    path = tmp_path / "join.json"
    path.write_text(json.dumps(pipelines("join-3-1-0").K.to_json()))
    n = tower.n - 1
    assert main(["check-pd", str(path), "--n", str(n)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out, key=int) == [str(r) for r in range(2, tower.r_max + 1)]
    for r, flags in out.items():
        assert flags == {v: f.to_json() for v, f in _fresh_flags(tower, int(r), n).items()}, r


def test_audits_read_the_given_flags(pipelines, monkeypatch):
    tower = pipelines("join-3-1-0").tower
    terms = tower_terms(tower)
    flags = duality_report(terms, tower.n)

    def no_search(*args):
        raise AssertionError("the audits searched again")

    monkeypatch.setattr(duality, "duality_flags", no_search)
    audit = pd_propagation_audit(terms, tower.n, check_zero_row(tower), flags)
    assert audit["violations"] == [] and audit["checked"] > 0
    assert mod4_audit(terms, tower.n, flags).verdict == "pass"


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
