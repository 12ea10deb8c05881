"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import json
import time

import numpy as np

from swanss.complexes import (
    betti_numbers,
    cochain_complex,
    cohomology_gmodules,
    fixed_subcomplex,
    quotient_complex,
    validate_and_regularize,
)
from swanss.corpus import (
    build_bredon_betti,
    build_circle,
    build_mp_profile,
    build_seifert_betti,
    build_sphere_join,
    corpus_names,
    run_corpus,
)
from swanss.duality import (
    duality_report,
    mod4_audit,
    pd_propagation_audit,
    tower_terms,
    verify_chi_t,
    verify_sokolov,
    verify_t_inequality,
    verify_theorem_zp,
    verify_torus_congruence,
)
from swanss.gmodule import (
    CohomologyProfile,
    decompose,
    group_cohomology,
    module_from_multiplicities,
)
from swanss.linalg import FactoredSolve, matmul_mod, rank_mod
from swanss.pages import check_odd_page_vanishing, check_zero_row
from swanss.report import analyze_complex
from swanss.swan import SwanDoubleComplex
from swan_helpers import d1_images, dense_delta, tot_differential, tot_product

SIMPLICIAL = [
    "circle-2", "circle-3", "circle-5", "circle-trivial-3",
    "join-3-1-1", "join-3-1-0", "join-5-1-1", "join-5-1-0",
    "suspension-3", "suspension-5",
]
FIXED_POINT = ["circle-trivial-3", "join-3-1-0", "join-5-1-0", "suspension-3", "suspension-5"]


def _report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_module_roundtrip_and_table():
    start = time.time()
    rng = np.random.default_rng(20240518)
    for _ in range(500):
        p = int(rng.choice([2, 3, 5, 7]))
        mult: dict[int, int] = {}
        total = 0
        for _ in range(int(rng.integers(1, 4))):
            d = int(rng.integers(1, p + 1))
            mult[d] = mult.get(d, 0) + 1
            total += d
        module = module_from_multiplicities(p, mult)
        g = rng.integers(0, p, (total, total))
        while rank_mod(g, p) < total:
            g = rng.integers(0, p, (total, total))
        inv = FactoredSolve(g, p).solve_many(np.eye(total, dtype=np.int64))
        conj = matmul_mod(matmul_mod(g, module.action, p), inv, p)
        from swanss.gmodule import GModule

        assert decompose(GModule(p, conj)).multiplicities == mult
    for p in (2, 3, 5, 7):
        for i in range(1, p + 1):
            module = module_from_multiplicities(p, {i: 1})
            assert group_cohomology(module, 0).dim == 1
            for k in range(1, 5):
                assert group_cohomology(module, k).dim == (1 if i < p else 0)
    elapsed = time.time() - start
    _report(1, elapsed < 10, f"500 round-trips + closed-form table in {elapsed:.1f}s (< 10s)")


def test_criterion_2_free_action_borel_oracle():
    start = time.time()
    cases = [build_circle(3), build_circle(5), build_sphere_join(3, 1, 1), build_sphere_join(5, 1, 1)]
    for K in cases:
        R = validate_and_regularize(K)
        dc = SwanDoubleComplex(cochain_complex(R))
        tot = dc.total_cohomology_dims()
        qb = betti_numbers(quotient_complex(R))
        expected = (qb + [0] * len(tot))[: len(tot)]
        assert tot == expected, f"free-action oracle mismatch for p={K.p}"
    elapsed = time.time() - start
    _report(2, elapsed < 60, f"4 free actions match quotient Betti exactly in {elapsed:.1f}s (< 60s)")


def test_criterion_3_localization(pipelines):
    pipe = pipelines("join-5-1-0")
    tot = pipe.D.total_cohomology_dims()
    FX = fixed_subcomplex(pipe.R)
    fx_tot = SwanDoubleComplex(cochain_complex(FX)).total_cohomology_dims()
    upto = min(len(tot), len(fx_tot))
    ok = tot[4:upto] == fx_tot[4:upto]
    ok = ok and all(d == 2 for d in tot[4:upto])
    # closed-form cross-check: full Betti sum of the fixed circle is 2
    ok = ok and all(d == sum([1, 1]) for d in fx_tot[2:upto])
    _report(3, ok, f"H^s agrees with the fixed set for 3 < s <= {upto - 1}, value 2 per degree")


def test_criterion_4_e2_identification(pipelines):
    checked = 0
    for name in SIMPLICIAL:
        tower = pipelines(name).tower
        page = tower.pages[2]
        for l in range(tower.n + 1):
            module = tower.H[l].module
            dims_by_parity = [group_cohomology(module, k).dim for k in range(3)]
            for k in range(page.trusted_k + 1):
                expected = dims_by_parity[k] if k < 3 else dims_by_parity[2 - (k % 2)]
                assert page.dim(k, l) == expected, (name, k, l)
                checked += 1
    _report(4, True, f"E_2 = group cohomology of the module route at {checked} trusted cells")


def test_criterion_5_convergence(pipelines):
    checked = 0
    for name in SIMPLICIAL:
        pipe = pipelines(name)
        tower = pipe.tower
        tot = pipe.D.total_cohomology_dims()
        last = tower.pages[tower.r_max]
        for s in range(min(last.trusted_k, len(tot) - 1) + 1):
            assert tower.antidiagonal_sum(tower.r_max, s) == tot[s], (name, s)
            checked += 1
    _report(5, True, f"E_(n+2) antidiagonal sums equal total-complex dims at {checked} degrees")


def test_criterion_6_duality_suite(pipelines):
    for name in FIXED_POINT:
        tower = pipelines(name).tower
        report = duality_report(tower_terms(tower), tower.n)
        for r in range(2, min(5, tower.r_max) + 1):
            assert report[r]["wpd"].holds is True, (name, r, "wpd")
        # all these corpus actions are nice with n <= 3: strong duality too
        for r, flags in report.items():
            assert flags["sspd"].holds is True, (name, r, "sspd")
    violations = 0
    for name in SIMPLICIAL:
        tower = pipelines(name).tower
        terms = tower_terms(tower)
        flags = duality_report(terms, tower.n)
        audit = pd_propagation_audit(terms, tower.n, check_zero_row(tower), flags)
        violations += len(audit["violations"])
    _report(6, violations == 0, "wpd on pages 2..5, sspd everywhere (nice, n<=3), audits clean")


def test_criterion_7_mod4_suite(pipelines):
    qualifying = 0
    skew_triggered = 0
    for name in SIMPLICIAL:
        tower = pipelines(name).tower
        terms = tower_terms(tower)
        verdict = mod4_audit(terms, tower.n, duality_report(terms, tower.n))
        assert verdict.verdict in ("pass", "not-applicable"), (name, verdict.to_json())
        if verdict.verdict == "pass":
            qualifying += 1
            trig = [n for n in verdict.notes if n.startswith("skew checks triggered")]
            count = int(trig[0].rsplit(" ", 1)[1])
            if tower.n == 3:
                assert count > 0, (name, "skew check must trigger for n = 3")
                skew_triggered += 1
    _report(
        7,
        qualifying >= 4 and skew_triggered >= 2,
        f"mod-4 congruences hold on {qualifying} qualifying complexes, "
        f"skew-rank evenness triggered on {skew_triggered} 3-manifold cases",
    )


def test_criterion_8_theorem_validators(pipelines):
    start = time.time()

    def profiles(name):
        pipe = pipelines(name)
        profile = cohomology_gmodules(pipe.C)
        FX = fixed_subcomplex(pipe.R)
        fp = (
            cohomology_gmodules(cochain_complex(FX))
            if FX.vertex_count
            else CohomologyProfile(pipe.K.p, [])
        )
        return profile, fp

    # main congruence on the semifree join, both routes
    profile, fp = profiles("join-5-1-0")
    tower = pipelines("join-5-1-0").tower
    v1 = verify_theorem_zp(profile, fp, 3, fixed_nonempty=True, no_p_torsion=True, route="zp")
    v2 = verify_theorem_zp(profile, fp, 3, fixed_nonempty=True,
                           cond_holds=check_odd_page_vanishing(tower), route="zp-fp")
    assert v1.verdict == "pass" and (v1.lhs, v1.rhs) == (2, 2)
    assert v2.verdict == "pass"
    # Sokolov parity on every 3-manifold corpus action with fixed circles
    for name in ("join-3-1-0", "join-5-1-0"):
        prof, fprof = profiles(name)
        circles = fprof.betti[0] if fprof.betti else 0
        assert verify_sokolov(prof, circles).verdict == "pass", name
    # chi_t and tail inequality corpus-wide
    for name in SIMPLICIAL:
        prof, fprof = profiles(name)
        chi = verify_chi_t(prof, fprof, no_p_torsion=True)
        assert chi.verdict in ("pass", "not-applicable"), (name, chi.to_json())
        if pipelines(name).K.p != 2:
            assert chi.verdict == "pass", name
        for k in range(len(prof) + 1):
            assert verify_t_inequality(prof, fprof, k).verdict == "pass", (name, k)
    # counterexamples are gated, never failed
    for p in (2, 3, 5):
        mp = build_mp_profile(p)
        fprof = CohomologyProfile.from_multiplicities(p, [{1: 1}, {1: 1}])
        verdict = verify_theorem_zp(mp, fprof, 3, fixed_nonempty=True,
                                    no_p_torsion=True, route="zp")
        assert verdict.verdict == "not-applicable", p
    assert verify_torus_congruence(**build_bredon_betti()).verdict == "not-applicable"
    for b, s in ((1, 2), (2, 1), (3, 2), (3, 4)):
        assert verify_torus_congruence(**build_seifert_betti(b, s)).verdict == "pass"
    elapsed = time.time() - start
    _report(8, elapsed < 30, f"all theorem validators behave as published in {elapsed:.1f}s (< 30s)")


def test_criterion_9_product_laws(pipelines):
    for name in SIMPLICIAL:
        pipe = pipelines(name)
        dc = pipe.D
        tower = pipe.tower
        p = dc.p
        rng = np.random.default_rng(hash(name) % (2**32))
        evaluations = 0

        # cochain-level Leibniz on random bigraded elements
        for _ in range(120 if p != 2 else 130):
            k, k2 = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            l = int(rng.integers(0, dc.n + 1))
            l2 = int(rng.integers(0, dc.n + 1))
            x = {(k, l): rng.integers(0, p, dc.base.dims[l])}
            y = {(k2, l2): rng.integers(0, p, dc.base.dims[l2])}
            lhs = tot_differential(dc, tot_product(dc, x, y))
            rhs = tot_product(dc, tot_differential(dc, x), y)
            sgn = (-1) ** (k + l) % p
            for pos, vec in tot_product(dc, x, tot_differential(dc, y)).items():
                cur = rhs.get(pos)
                acc = np.mod((cur if cur is not None else 0) + sgn * vec, p)
                if np.any(acc):
                    rhs[pos] = acc
                elif pos in rhs:
                    del rhs[pos]
            assert set(lhs) == set(rhs) and all(
                np.array_equal(lhs[q], rhs[q]) for q in lhs
            ), name
            evaluations += 1

        page = tower.pages[2]
        cells = [(k, l) for (k, l), c in page.cells.items() if c.dim and k <= page.trusted_k]

        # unit law
        unit = tower.basis_class(2, 0, 0, 0)
        for _ in range(10):
            (k, l) = cells[int(rng.integers(0, len(cells)))]
            cls = tower.basis_class(2, k, l, int(rng.integers(0, page.dim(k, l))))
            out = tower.product(2, unit, cls)
            assert np.array_equal(out.coords, cls.coords), name
            evaluations += 1

        # graded commutativity
        done = 0
        while done < 40:
            (k, l) = cells[int(rng.integers(0, len(cells)))]
            (k2, l2) = cells[int(rng.integers(0, len(cells)))]
            if k + k2 > tower.k_max or l + l2 > tower.n:
                continue
            a = tower.basis_class(2, k, l, 0)
            b = tower.basis_class(2, k2, l2, 0)
            ab, ba = tower.product(2, a, b), tower.product(2, b, a)
            sgn = (-1) ** ((k + l) * (k2 + l2)) % p
            assert np.array_equal(ab.coords, sgn * ba.coords % p), name
            done += 1
            evaluations += 1

        # representative independence
        done = 0
        while done < 20:
            (k, l) = cells[int(rng.integers(0, len(cells)))]
            (k2, l2) = cells[int(rng.integers(0, len(cells)))]
            if k + k2 > tower.k_max or l + l2 > tower.n:
                continue
            a = tower.basis_class(2, k, l, 0)
            b = tower.basis_class(2, k2, l2, 0)
            canonical = tower.product(2, a, b)
            va = tower.leading_vector(a)
            if l > 0:
                w = rng.integers(0, p, dc.base.dims[l - 1])
                va = np.mod(va + dense_delta(dc.base, l - 1) @ w, p)
            for image in d1_images(dc, k, l).T:
                va = np.mod(va + int(rng.integers(0, p)) * image, p)
            w2 = dc.product(k, l, va, k2, l2, tower.leading_vector(b))
            assert np.array_equal(
                tower.project(2, k + k2, l + l2, w2), canonical.coords
            ), name
            done += 1
            evaluations += 1

        # odd-odd vanishing at E_2: nice actions, p odd (the binomial count
        # p(p-1)/2 is divisible by p only for p != 2)
        odd_cells = [(k, l) for (k, l) in cells if k % 2 == 1] if p != 2 else []
        done = 0
        attempts = 0
        while done < 10 and attempts < 200 and odd_cells:
            attempts += 1
            (k, l) = odd_cells[int(rng.integers(0, len(odd_cells)))]
            (k2, l2) = odd_cells[int(rng.integers(0, len(odd_cells)))]
            if k + k2 > tower.k_max or l + l2 > tower.n:
                continue
            out = tower.product(
                2, tower.basis_class(2, k, l, 0), tower.basis_class(2, k2, l2, 0)
            )
            assert out.is_zero(), (name, k, l, k2, l2)
            done += 1
            evaluations += 1

        assert evaluations >= 200, (name, evaluations)
    _report(9, True, f"product laws hold on >= 200 random evaluations per complex")


def test_criterion_10_determinism_and_runtime():
    K = build_sphere_join(3, 1, 0)
    blob = json.dumps(K.to_json()).encode()
    r1 = analyze_complex(K, name="det", no_p_torsion=True, input_bytes=blob)
    r2 = analyze_complex(K, name="det", no_p_torsion=True, input_bytes=blob)
    from swanss.report import canonical_json

    identical = canonical_json(r1) == canonical_json(r2)
    start = time.time()
    results = run_corpus(corpus_names())
    elapsed = time.time() - start
    all_ok = all(r.ok for r in results)
    _report(
        10,
        identical and all_ok and elapsed < 300,
        f"byte-identical reports; full corpus ({len(results)} entries) "
        f"green in {elapsed:.1f}s (< 300s)",
    )
