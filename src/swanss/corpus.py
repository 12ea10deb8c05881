"""Built-in example spaces with tagged expected results.

Every expected value carries a provenance tag: immediate (true by
construction), derived (computed by an independent route, e.g. quotient
Betti numbers against the total complex), or published (a value from
the literature).  `run_entry` re-derives everything and compares.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .complexes import (
    SimplicialGComplex,
    cochain_complex,
    fixed_subcomplex,
    validate_and_regularize,
)
from .duality import verify_bryan
from .gmodule import CohomologyProfile
from .linalg import is_prime
from .report import analyze_betti_entry, analyze_complex, analyze_profile_entry
from .swan import SwanDoubleComplex


# -- constructors -----------------------------------------------------------


def build_circle(p: int) -> SimplicialGComplex:
    """Polygonal circle with a free one-step rotation (half-turn square for p = 2)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return SimplicialGComplex.from_maximal(
            2, 4, [2, 3, 0, 1], [(0, 1), (1, 2), (2, 3), (0, 3)]
        )
    gen = [(v + 1) % p for v in range(p)]
    edges = [tuple(sorted((i, (i + 1) % p))) for i in range(p)]
    return SimplicialGComplex.from_maximal(p, p, gen, edges)


def build_trivial_circle(p: int) -> SimplicialGComplex:
    """Polygonal circle with the trivial action (Kunneth oracle input)."""
    m = max(3, p)
    edges = [tuple(sorted((i, (i + 1) % m))) for i in range(m)]
    return SimplicialGComplex.from_maximal(p, m, list(range(m)), edges)


def build_sphere_join(p: int, a: int, b: int) -> SimplicialGComplex:
    """Join of two p-gons (a 3-sphere); the generator rotates the factors
    by a and b steps.  Free iff both are nonzero; a fixed circle iff
    exactly one is zero."""
    if not is_prime(p) or p == 2:
        raise ValueError("join model needs an odd prime")
    if not (0 <= a < p and 0 <= b < p) or (a, b) == (0, 0):
        raise ValueError(f"invalid rotation steps ({a}, {b})")
    gen = [(v + a) % p for v in range(p)] + [p + ((v + b) % p) for v in range(p)]
    e1 = [tuple(sorted((i, (i + 1) % p))) for i in range(p)]
    e2 = [tuple(sorted((p + i, p + (i + 1) % p))) for i in range(p)]
    top = [tuple(sorted(x + y)) for x in e1 for y in e2]
    return SimplicialGComplex.from_maximal(p, 2 * p, gen, top)


def build_suspension_sphere(p: int) -> SimplicialGComplex:
    """2-sphere as the suspension of a p-gon, rotated; the poles are fixed."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    m = max(3, p)
    gen = [(v + 1) % m for v in range(m)] + [m, m + 1]
    tri = []
    for i in range(m):
        e = tuple(sorted((i, (i + 1) % m)))
        tri.append(tuple(sorted(e + (m,))))
        tri.append(tuple(sorted(e + (m + 1,))))
    return SimplicialGComplex.from_maximal(p, m + 2, gen, tri)


def build_mp_profile(p: int) -> CohomologyProfile:
    """Cohomology of the connected sum of p-1 copies of S^2 x S^1 with the
    surgered Z/p action: H^1 and H^2 are the (p-1)-dimensional
    indecomposable, so the action is not nice for p > 2."""
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return CohomologyProfile.from_multiplicities(
        p, [{1: 1}, {p - 1: 1}, {p - 1: 1}, {1: 1}]
    )


def build_seifert_betti(b: int, s: int) -> dict:
    """Betti data of a Seifert-style circle action: genus (b+1-s)/2 surface
    times a circle with s solid tori attached; s fixed circles."""
    if not (0 < s <= 1 + b and (s - (1 + b)) % 2 == 0):
        raise ValueError(f"need 0 < s <= 1+b and s = 1+b mod 2, got b={b}, s={s}")
    return {"betti_m": [1, b, b, 1], "betti_f": [s, s], "n": 3, "fixed_nonempty": True}


def build_bredon_betti() -> dict:
    """Circle action on S^3 x S^5 x S^9 whose fixed set is an S^7-bundle
    over S^3 x S^5; the Betti sums 8 and 6 differ mod 4, and the even
    Betti number b_8 = 1 breaks the degree condition."""
    betti_m = [0] * 18
    for i in (0, 3, 5, 8, 9, 12, 14, 17):
        betti_m[i] = 1
    betti_f = [0] * 16
    for i in (0, 3, 5, 10, 12, 15):
        betti_f[i] = 1
    return {"betti_m": betti_m, "betti_f": betti_f, "n": 17, "fixed_nonempty": True}


# -- expectations ------------------------------------------------------------


@dataclass
class ExpectationResult:
    name: str
    tag: str
    expected: object
    actual: object
    ok: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "tag": self.tag,
            "expected": self.expected,
            "actual": self.actual,
            "ok": self.ok,
        }


@dataclass
class CorpusResult:
    name: str
    kind: str
    checks: list[ExpectationResult]
    report: dict

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "ok": self.ok,
            "checks": [c.to_json() for c in self.checks],
        }


def _chk(out: list, name: str, tag: str, expected, actual):
    out.append(ExpectationResult(name, tag, expected, actual, expected == actual))


def _verdict_of(report: dict, theorem_prefix: str) -> str | None:
    for v in report.get("verdicts", []):
        if v["theorem"].startswith(theorem_prefix):
            return v["verdict"]
    return None


def _kunneth_dims(betti: list[int], length: int) -> list[int]:
    # H(B(Z/p); F_p) is one-dimensional in every degree, so a trivial
    # action gives dim H^s_G = sum of the Betti numbers up to min(s, n).
    return [sum(betti[: s + 1]) for s in range(length)]


def _run_point(p: int) -> CorpusResult:
    K = SimplicialGComplex(p, 1, [0], [(0,)])
    report = analyze_complex(K, name=f"point-{p}", no_p_torsion=True)
    checks = []
    tot = report["swan"]["tot_dims"]
    _chk(checks, "classifying-space cohomology is one-dimensional everywhere",
         "immediate", [1] * len(tot), tot)
    _chk(checks, "zeroth row survives", "immediate", True, report["zero_row_survives"])
    _chk(checks, "fixed set is the point itself", "immediate", [1], report["fixed"]["betti"])
    _chk(checks, "orbit-count Euler formula", "immediate", True,
         report["quotient"]["chi_formula_holds"])
    return CorpusResult(f"point-{p}", "simplicial", checks, report)


def _run_circle(p: int) -> CorpusResult:
    K = build_circle(p)
    report = analyze_complex(K, name=f"circle-{p}", no_p_torsion=True)
    checks = []
    _chk(checks, "circle Betti numbers", "immediate", [1, 1], report["profile"]["betti"])
    _chk(checks, "free action has empty fixed set", "immediate", True, report["fixed"]["empty"])
    tot = report["swan"]["tot_dims"]
    qb = report["quotient"]["betti"]
    expected = (qb + [0] * len(tot))[: len(tot)]
    _chk(checks, "free-action total dims equal quotient Betti numbers",
         "derived", expected, tot)
    _chk(checks, "zeroth row does not survive (free action)",
         "derived", False, report["zero_row_survives"])
    _chk(checks, "orbit-count Euler formula", "immediate", True,
         report["quotient"]["chi_formula_holds"])
    return CorpusResult(f"circle-{p}", "simplicial", checks, report)


def _run_trivial_circle(p: int) -> CorpusResult:
    K = build_trivial_circle(p)
    report = analyze_complex(K, name=f"circle-trivial-{p}", no_p_torsion=True)
    checks = []
    tot = report["swan"]["tot_dims"]
    _chk(checks, "trivial-action total dims follow the parity sum rule",
         "derived", _kunneth_dims([1, 1], len(tot)), tot)
    _chk(checks, "fixed set is everything", "immediate", [1, 1], report["fixed"]["betti"])
    _chk(checks, "zeroth row survives", "immediate", True, report["zero_row_survives"])
    _chk(checks, "orbit-count Euler formula", "immediate", True,
         report["quotient"]["chi_formula_holds"])
    return CorpusResult(f"circle-trivial-{p}", "simplicial", checks, report)


def _run_sphere_join(p: int, a: int, b: int) -> CorpusResult:
    name = f"sphere-join-{p}-{a}-{b}"
    K = build_sphere_join(p, a, b)
    report = analyze_complex(K, name=name, no_p_torsion=True)
    checks = []
    _chk(checks, "3-sphere Betti numbers", "derived", [1, 0, 0, 1],
         report["profile"]["betti"])
    _chk(checks, "duality space of formal dimension 3", "derived", True,
         report["pd_space"]["is_pd_space"])
    free = a != 0 and b != 0
    _chk(checks, "freeness matches rotation parameters", "immediate", free,
         report["fixed"]["empty"])
    tot = report["swan"]["tot_dims"]
    if free:
        qb = report["quotient"]["betti"]
        expected = (qb + [0] * len(tot))[: len(tot)]
        _chk(checks, "free-action total dims equal lens-space Betti numbers",
             "derived", expected, tot)
        _chk(checks, "lens-space Betti numbers over F_p", "derived",
             [1, 1, 1, 1], qb)
        _chk(checks, "zeroth row does not survive (free action)", "derived",
             False, report["zero_row_survives"])
    else:
        _chk(checks, "fixed set is one circle", "derived", [1, 1],
             report["fixed"]["betti"])
        _chk(checks, "zeroth row survives (fixed point present)", "published",
             True, report["zero_row_survives"])
        expected = [1, 1, 1] + [2] * (len(tot) - 3)
        _chk(checks, "semifree total dims: 1,1,1 then 2 forever", "derived",
             expected, tot)
        # localization: the fixed circle with its trivial action gives the
        # same equivariant cohomology beyond the formal dimension
        FX = fixed_subcomplex(validate_and_regularize(K))
        fx_tot = SwanDoubleComplex(cochain_complex(FX)).total_cohomology_dims()
        upto = min(len(tot), len(fx_tot))
        _chk(checks, "localization onto the fixed set beyond degree 3",
             "derived", fx_tot[4:upto], tot[4:upto])
        kun = _kunneth_dims(report["fixed"]["betti"], upto)
        _chk(checks, "fixed-set equivariant dims follow the parity sum rule",
             "derived", kun[4:], fx_tot[4:upto])
        for flag in ("wpd", "sspd"):
            held = all(
                report["duality"][str(r)][flag]["holds"] is True
                for r in range(2, 6)
            )
            _chk(checks, f"{flag} holds on pages 2..5", "published", True, held)
        _chk(checks, "t-sum congruence verdict", "derived", "pass",
             _verdict_of(report, "t-sum congruence (zp)"))
        _chk(checks, "fixed-circle parity verdict", "derived", "pass",
             _verdict_of(report, "fixed-circle parity"))
        _chk(checks, "column sums congruent mod 4", "derived", "pass",
             report["audits"]["mod4"]["verdict"])
    _chk(checks, "chi_t equality verdict", "derived", "pass",
         _verdict_of(report, "chi_t equality"))
    _chk(checks, "propagation audit clean", "derived", 0,
         len(report["audits"]["propagation"]["violations"]))
    _chk(checks, "orbit-count Euler formula", "immediate", True,
         report["quotient"]["chi_formula_holds"])
    return CorpusResult(name, "simplicial", checks, report)


def _run_suspension(p: int) -> CorpusResult:
    name = f"suspension-sphere-{p}"
    K = build_suspension_sphere(p)
    report = analyze_complex(K, name=name, no_p_torsion=True)
    checks = []
    _chk(checks, "2-sphere Betti numbers", "immediate", [1, 0, 1],
         report["profile"]["betti"])
    _chk(checks, "two fixed poles", "derived", [2], report["fixed"]["betti"])
    # Bryan's count reads H^1 only up to isomorphism: the reported decomposition
    surface_profile = CohomologyProfile.from_multiplicities(p, [
        {int(d): m for d, m in dec.items()} for dec in report["profile"]["decompositions"]
    ])
    bryan = verify_bryan(surface_profile, 2)
    _chk(checks, "surface fixed-point count formula", "derived", "pass", bryan.verdict)
    _chk(checks, "even-dimension Betti/chi congruence", "immediate", "pass",
         _verdict_of(report, "even-dimension"))
    _chk(checks, "chi_t of fixed set equals chi_t of sphere", "derived", "pass",
         _verdict_of(report, "chi_t equality"))
    _chk(checks, "zeroth row survives", "published", True, report["zero_row_survives"])
    sspd_all = all(
        report["duality"][str(r)]["sspd"]["holds"] is True
        for r in report["duality"]
    )
    _chk(checks, "strong duality on every page (nice, n <= 3)", "published",
         True, sspd_all)
    _chk(checks, "orbit-count Euler formula", "immediate", True,
         report["quotient"]["chi_formula_holds"])
    return CorpusResult(name, "simplicial", checks, report)


def _run_mp_profile(p: int) -> CorpusResult:
    name = f"mp-profile-{p}"
    profile = build_mp_profile(p)
    report = analyze_profile_entry(
        profile,
        name=name,
        n=3,
        fixed_scenarios=[
            # the surgered action can have empty, one-circle or two-circle
            # fixed sets; run the validator on the one-circle case
            {"fixed_multiplicities": [{1: 1}, {1: 1}], "fixed_nonempty": True,
             "no_p_torsion": True}
        ],
    )
    checks = []
    _chk(checks, "Betti numbers 1, p-1, p-1, 1", "published",
         [1, p - 1, p - 1, 1], report["profile"]["betti"])
    nice = p == 2
    _chk(checks, "niceness only at p = 2", "published", nice, report["profile"]["nice"])
    _chk(checks, "t-numbers symmetric under duality", "derived", True,
         report["t_duality_symmetric"])
    # gated either way: for p > 2 niceness fails, for p = 2 the theorem
    # excludes the prime; a counterexample must never read "fail"
    _chk(checks, "t-sum congruence verdict is hypothesis-gated", "published",
         "not-applicable", report["verdicts"][0]["verdict"])
    hyp = {h["name"]: h["pass"] for h in report["verdicts"][0]["hypotheses"]}
    _chk(checks, "the gating hypothesis is the expected one", "published", False,
         hyp["p != 2"] if p == 2 else hyp["action on cohomology is nice"])
    return CorpusResult(name, "algebraic-profile", checks, report)


def _run_seifert(b: int, s: int) -> CorpusResult:
    name = f"seifert-{b}-{s}"
    data = build_seifert_betti(b, s)
    report = analyze_betti_entry(**data, name=name)
    checks = []
    _chk(checks, "Betti sum congruence", "published", "pass",
         report["verdicts"][0]["verdict"])
    return CorpusResult(name, "betti-data", checks, report)


def _run_bredon() -> CorpusResult:
    data = build_bredon_betti()
    report = analyze_betti_entry(**data, name="bredon")
    checks = []
    _chk(checks, "degree condition fails, verdict not-applicable", "published",
         "not-applicable", report["verdicts"][0]["verdict"])
    _chk(checks, "Betti sums 8 and 6", "published", [8, 6],
         [sum(data["betti_m"]), sum(data["betti_f"])])
    return CorpusResult("bredon", "betti-data", checks, report)


_REGISTRY: dict[str, Callable[[], CorpusResult]] = {
    "point-3": lambda: _run_point(3),
    "circle-2": lambda: _run_circle(2),
    "circle-3": lambda: _run_circle(3),
    "circle-5": lambda: _run_circle(5),
    "circle-trivial-3": lambda: _run_trivial_circle(3),
    "sphere-join-3-1-1": lambda: _run_sphere_join(3, 1, 1),
    "sphere-join-3-1-0": lambda: _run_sphere_join(3, 1, 0),
    "sphere-join-5-1-1": lambda: _run_sphere_join(5, 1, 1),
    "sphere-join-5-1-0": lambda: _run_sphere_join(5, 1, 0),
    "suspension-sphere-3": lambda: _run_suspension(3),
    "suspension-sphere-5": lambda: _run_suspension(5),
    "mp-profile-2": lambda: _run_mp_profile(2),
    "mp-profile-3": lambda: _run_mp_profile(3),
    "mp-profile-5": lambda: _run_mp_profile(5),
    "seifert-1-2": lambda: _run_seifert(1, 2),
    "seifert-2-1": lambda: _run_seifert(2, 1),
    "seifert-3-2": lambda: _run_seifert(3, 2),
    "seifert-3-4": lambda: _run_seifert(3, 4),
    "bredon": _run_bredon,
}


def corpus_names() -> list[str]:
    return list(_REGISTRY)


def run_entry(name: str) -> CorpusResult:
    if name not in _REGISTRY:
        raise KeyError(f"unknown corpus entry {name!r}")
    return _REGISTRY[name]()


def run_corpus(names: list[str] | None = None) -> list[CorpusResult]:
    """Run corpus entries in the order given, all of them by default."""
    return [run_entry(name) for name in names or corpus_names()]
