"""Poincare-duality conditions on spectral sequence pages, and the
congruence/inequality validators built on them.

Three dualities on a page term, each asserting the existence of a
threshold N beyond which the product pairings

    E^(k,l) x E^(k', n-l)  ->  E^(k+k', n) = K

are perfect for prescribed column parities: both even (full duality,
which also demands odd columns vanish), different parity (weak), or at
least one even (strong).  The checkers find the least workable N in the
trusted window and report every degenerate pairing with its coordinates.
Raising N only drops cells and pairs from the check, in the same order,
so one scan at N = 0 decides every candidate: the violations at N are
those at 0 that `_kept` still lets through.  `duality_report` runs the
three searches once per page, and the audits read its flags.

All theorem validators are hypothesis-gated: a failed hypothesis yields
"not-applicable", never "fail".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantError
from .gmodule import CohomologyProfile, chi_t, group_cohomology, t_sum, t_tail_sum
from .pages import PageTower
from .synthetic import matrix_rank_over


# -- term adapters -------------------------------------------------------


class ComputedTerm:
    """Adapter presenting one page of a computed tower to the checkers."""

    def __init__(self, tower: PageTower, r: int):
        self.tower = tower
        self.r = r
        self.n = tower.n
        self.field_char = tower.p
        self.trusted_k = tower.pages[r].trusted_k
        self.has_products = True
        self._pairings: dict[tuple, object] = {}

    def dim(self, k: int, l: int) -> int:
        if k < 0 or l < 0 or l > self.n:
            return 0
        return self.tower.pages[self.r].dim(k, l)

    def d_rank(self, k: int, l: int) -> int:
        return self.tower.pages[self.r].d_rank(k, l)

    def d_is_zero(self, k: int, l: int) -> bool:
        cell = self.tower.pages[self.r].source(k, l)
        return cell is None or cell.d_matrix.is_zero()

    def pairing_matrix(self, k, l, k2, l2):
        key = (k, l, k2, l2)
        if key not in self._pairings:
            mat = self.tower.pairing_matrix(self.r, k, l, k2, l2)
            self._pairings[key] = None if mat is None else mat.tolist()
        return self._pairings[key]


def tower_terms(tower: PageTower, first: int = 2) -> dict[int, ComputedTerm]:
    return {r: ComputedTerm(tower, r) for r in range(first, tower.r_max + 1)}


# -- pairing evaluation ----------------------------------------------------


@dataclass
class PairingViolation:
    k: int
    l: int
    k2: int
    l2: int
    reason: str
    detail: object = None

    def to_json(self) -> dict:
        out = {"k": self.k, "l": self.l, "k2": self.k2, "l2": self.l2, "reason": self.reason}
        if self.detail is not None:
            out["detail"] = self.detail
        return out


_NO_DATA = "no product data"
_NO_MIXED = "no mixed-parity pair in window"


def _pairing_status(term, k: int, l: int, k2: int, l2: int) -> str | None:
    """None when the pairing is perfect; otherwise a reason string."""
    da, db = term.dim(k, l), term.dim(k2, l2)
    if da == 0 and db == 0:
        return None  # the zero pairing on zero spaces is non-degenerate
    if da != db:
        return f"dimension mismatch {da} vs {db}"
    if term.dim(k + k2, l + l2) != 1:
        return f"target dimension {term.dim(k + k2, l + l2)} != 1"
    mat = term.pairing_matrix(k, l, k2, l2)
    if mat is None:
        return _NO_DATA
    rank = matrix_rank_over(mat, term.field_char)
    if rank != da:
        return f"rank {rank} < {da}"
    return None


# -- the three duality conditions -------------------------------------------


@dataclass
class DualityFlag:
    variant: str
    holds: bool | None
    threshold: int | None
    window: tuple[int, int]
    violations: list[PairingViolation] = field(default_factory=list)
    note: str = ""

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "holds": self.holds,
            "threshold": self.threshold,
            "window": list(self.window),
            "violations": [v.to_json() for v in self.violations[:20]],
            "note": self.note,
        }


# how many of a qualifying pair's two columns may be odd
_ODD_COLUMNS = {"pd": (0,), "wpd": (1,), "sspd": (0, 1)}


def _column_pairs(variant: str, N: int, w: int):
    """Qualifying (k, k') pairs with the pairing target inside the window:
    both columns >= N for pd, > N otherwise, in lexicographic order."""
    low = max(N + (variant != "pd"), 0)
    for k in range(low, w + 1):
        for k2 in range(low, w + 1 - k):
            if k % 2 + k2 % 2 in _ODD_COLUMNS[variant]:
                yield k, k2


def _kept(v: PairingViolation, N: int, variant: str) -> bool:
    """Whether a violation found at threshold 0 is still checked at N >= 0."""
    if v.k2 < 0:
        return v.k > N
    return min(v.k, v.k2) >= N + (variant != "pd")


def _check_variant(term, n: int, N: int, variant: str) -> list[PairingViolation]:
    """Violations at threshold N: single cells by column, then pairs."""
    w = term.trusted_k
    out: list[PairingViolation] = []
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
    for k, k2 in _column_pairs(variant, N, w):
        for l in range(n + 1):
            reason = _pairing_status(term, k, l, k2, n - l)
            if reason is not None:
                out.append(PairingViolation(k, l, k2, n - l, reason))
    return out


def _check_duality(term, n: int, variant: str, N: int | None = None) -> DualityFlag:
    w = term.trusted_k
    if w < 3:
        return DualityFlag(variant, None, None, (0, w), note="trusted window too small")
    if N is not None:
        violations = _check_variant(term, n, N, variant)
        data_gap = any(v.reason == _NO_DATA for v in violations)
        if next(_column_pairs(variant, N, w), None) is None:
            return DualityFlag(variant, None, N, (N, w), note="no qualifying pairs in window")
        # a mixed-parity pair of columns > N fits in the window iff N+1, N+2 does
        if variant == "sspd" and 2 * N + 3 > w:
            return DualityFlag(variant, None, N, (N, w), violations, note=_NO_MIXED)
        holds = None if data_gap else not violations
        return DualityFlag(variant, holds, N, (N, w), violations,
                           note="product data unavailable" if data_gap else "")
    # raising the threshold only drops checks, so one scan at 0 serves all
    everything = _check_variant(term, n, 0, variant)
    for cand in range(w - 2):
        if next(_column_pairs(variant, cand, w), None) is None:
            break
        violations = [v for v in everything if _kept(v, cand, variant)]
        if not violations:
            # (even, even) pairs alone say nothing of the mixed-parity half
            # that strong duality shares with weak duality
            if variant == "sspd" and 2 * cand + 3 > w:
                return DualityFlag(variant, None, None, (cand, w), note=_NO_MIXED)
            return DualityFlag(variant, True, cand, (cand, w))
        if any(v.reason == _NO_DATA for v in violations):
            return DualityFlag(variant, None, None, (cand, w), violations,
                               note="product data unavailable")
    return DualityFlag(variant, False, None, (0, w), everything)


def check_pd(term, n: int, N: int | None = None) -> DualityFlag:
    return _check_duality(term, n, "pd", N)


def check_wpd(term, n: int, N: int | None = None) -> DualityFlag:
    return _check_duality(term, n, "wpd", N)


def check_sspd(term, n: int, N: int | None = None) -> DualityFlag:
    return _check_duality(term, n, "sspd", N)


def duality_report(terms: dict[int, object], n: int) -> dict[int, dict[str, DualityFlag]]:
    """pd/wpd/sspd flags per page, with the internal implication checks."""
    report = {}
    for r, term in sorted(terms.items()):
        flags = {
            "pd": check_pd(term, n),
            "wpd": check_wpd(term, n),
            "sspd": check_sspd(term, n),
        }
        if flags["sspd"].holds and not flags["wpd"].holds:
            raise InvariantError("duality.report", f"strong duality without weak duality on page {r}")
        report[r] = flags
    return report


# -- propagation and rank-symmetry audit ---------------------------------


def pd_propagation_audit(terms: dict[int, object], n: int, zero_row: bool,
                         flags: dict[int, dict[str, DualityFlag]]) -> dict:
    """Page-to-page duality propagation plus differential rank symmetries.

    `flags` is the `duality_report` of the same terms.  Violations
    contradict proved propositions, so they indicate implementation bugs;
    callers treat any violation as a hard failure.
    """
    if not zero_row:
        return {"status": "not-applicable", "reason": "zeroth row does not survive", "checked": 0, "violations": []}
    rs = sorted(terms)
    checked = 0
    violations = []
    for r in rs:
        term = terms[r]
        nxt = terms.get(r + 1)
        w = term.trusted_k
        if nxt is not None:
            for k, k2 in ((a, b) for a in range(w + 1) for b in range(w + 1) if a + b <= w):
                if term.dim(k + k2, n) != 1 or term.dim(k + k2, 0) != 1:
                    continue
                for l in range(n + 1):
                    l2 = n - l
                    hyps = [
                        _pairing_status(term, k, l, k2, l2),
                        _pairing_status(term, k + r, l - r + 1, k2 - r, l2 + r - 1)
                        if l - r + 1 >= 0 else None,
                        _pairing_status(term, k - r, l + r - 1, k2 + r, l2 - r + 1)
                        if l2 - r + 1 >= 0 else None,
                        _pairing_status(term, k, n, k2, 0),
                        _pairing_status(term, k + r, n - r + 1, k2 - r, r - 1),
                    ]
                    if any(h is not None for h in hyps):
                        continue
                    if min(k, k2) + r + 1 > nxt.trusted_k or k + k2 > nxt.trusted_k:
                        continue
                    checked += 1
                    if nxt.dim(k + k2, n) != 1:
                        violations.append(
                            {"page": r + 1, "k": k, "l": l, "k2": k2,
                             "reason": "target row-n cell not one-dimensional"}
                        )
                        continue
                    status = _pairing_status(nxt, k, l, k2, l2)
                    if status is not None and status != _NO_DATA:
                        violations.append(
                            {"page": r + 1, "k": k, "l": l, "k2": k2, "reason": status}
                        )
        # rank symmetries on pages satisfying full or strong duality
        flag_pd, flag_sspd = flags[r]["pd"], flags[r]["sspd"]
        columns = []
        if flag_pd.holds:
            N = flag_pd.threshold
            columns = [k for k in range(N + 1, w + 1) if k % 2 == 0 and k + r <= w]
        elif flag_sspd.holds and r % 2 == 0:
            columns = [k for k in range(max(n, flag_sspd.threshold + 1), w + 1) if k + r <= w]
        for i, k in enumerate(columns):
            for k2 in columns[i + 1:]:
                for l in range(n + 1):
                    checked += 1
                    if term.d_rank(k, l) != term.d_rank(k2, l):
                        violations.append(
                            {"page": r, "k": k, "k2": k2, "l": l, "reason": "rank d not column-invariant"}
                        )
                    dual_l = n - l + r - 1
                    if 0 <= dual_l <= n and term.d_rank(k, l) != term.d_rank(k2, dual_l):
                        violations.append(
                            {"page": r, "k": k, "k2": k2, "l": l,
                             "reason": "rank d not symmetric under l -> n-l+r-1"}
                        )
    return {"status": "done", "checked": checked, "violations": violations}


# -- verdicts ---------------------------------------------------------------


@dataclass
class Hypothesis:
    name: str
    passed: bool
    evidence: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "evidence": self.evidence}


@dataclass
class CongruenceVerdict:
    theorem: str
    hypotheses: list[Hypothesis]
    lhs: int | None
    rhs: int | None
    modulus: int
    verdict: str
    relation: str = "mod"
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "hypotheses": [h.to_json() for h in self.hypotheses],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "modulus": self.modulus,
            "relation": self.relation,
            "verdict": self.verdict,
            "notes": self.notes,
        }


def _gate(theorem, hypotheses, lhs, rhs, modulus, relation="mod", notes=()):
    notes = list(notes)
    if not all(h.passed for h in hypotheses):
        return CongruenceVerdict(theorem, hypotheses, lhs, rhs, modulus, "not-applicable", relation, notes)
    if relation == "mod":
        ok = (lhs - rhs) % modulus == 0
    elif relation == "eq":
        ok = lhs == rhs
    elif relation == "le":
        ok = lhs <= rhs
    else:
        raise ValueError(relation)
    return CongruenceVerdict(theorem, hypotheses, lhs, rhs, modulus, "pass" if ok else "fail", relation, notes)


def mod4_audit(terms: dict[int, object], n: int,
               flags: dict[int, dict[str, DualityFlag]]) -> CongruenceVerdict:
    """Column sums at a large even column are constant mod 4 across pages.

    Hypotheses: char != 2; full duality at every page, or strong duality
    with vanishing odd-page differentials; and n even or row vanishing
    E_2^(k,l) = 0 for even 0 < l <= (n-1)/2 at large k.  `flags` is the
    `duality_report` of the same terms.
    """
    rs = sorted(terms)
    first, last = terms[rs[0]], terms[rs[-1]]
    hyps = [Hypothesis("field characteristic != 2", first.field_char != 2,
                       f"char {first.field_char}")]
    pd_all = all(flags[r]["pd"].holds for r in rs)
    sspd_all = all(flags[r]["sspd"].holds for r in rs)
    odd_vanish = all(
        terms[r].d_is_zero(k, l)
        for r in rs if r % 2 == 1
        for k in range(terms[r].trusted_k + 1)
        for l in range(n + 1)
    )
    hyps.append(
        Hypothesis(
            "full duality, or strong duality with odd differentials vanishing",
            pd_all or (sspd_all and odd_vanish),
            f"pd={pd_all} sspd={sspd_all} odd_vanish={odd_vanish}",
        )
    )
    w = min(t.trusted_k for t in terms.values())
    k0 = w - (w % 2)
    if n % 2 == 0:
        hyps.append(Hypothesis("n even", True, f"n={n}"))
    else:
        rows = [l for l in range(2, (n - 1) // 2 + 1, 2)]
        vanish = all(first.dim(k0, l) == 0 and first.dim(k0 - 1, l) == 0 for l in rows)
        hyps.append(
            Hypothesis(
                "E_2 vanishes in even rows 0 < l <= (n-1)/2 at large k",
                vanish,
                f"rows {rows} at k={k0},{k0 - 1}",
            )
        )
    notes = []
    skew_checks = 0
    per_page_ok = True
    if all(h.passed for h in hyps):
        for idx in range(len(rs) - 1):
            r, r2 = rs[idx], rs[idx + 1]
            a = sum(terms[r].dim(k0, l) for l in range(n + 1))
            b = sum(terms[r2].dim(k0, l) for l in range(n + 1))
            step_ok = (a - b) % 4 == 0
            per_page_ok = per_page_ok and step_ok
            notes.append(f"page {r} -> {r2}: column sum {a} -> {b} at k={k0}")
        for r in rs:
            if r % 2:
                continue
            if (n + r - 1) % 2 == 0:
                l0 = (n + r - 1) // 2
                if 0 <= l0 <= n and l0 % 2 == 0:
                    rank = terms[r].d_rank(k0, l0)
                    skew_checks += 1
                    if rank % 2:
                        per_page_ok = False
                        notes.append(f"skew pairing rank {rank} odd at page {r}, l0={l0}")
                    else:
                        notes.append(f"skew rank check page {r} l0={l0}: rank {rank} even")
    lhs = sum(last.dim(k0, l) for l in range(n + 1))
    rhs = sum(first.dim(k0, l) for l in range(n + 1))
    verdict = _gate("mod4-column-sums", hyps, lhs, rhs, 4, notes=notes)
    if verdict.verdict == "pass" and not per_page_ok:
        verdict = CongruenceVerdict(verdict.theorem, verdict.hypotheses, lhs, rhs, 4,
                                    "fail", "mod", notes + ["per-page step failed"])
    verdict.notes.append(f"skew checks triggered: {skew_checks}")
    return verdict


# -- theorem validators ------------------------------------------------------


def zp_condition(profile: CohomologyProfile, n: int, fixed_nonempty: bool) -> tuple[bool, str]:
    """n even, or nonempty fixed set with t vanishing in even degrees <= (n-1)/2."""
    if n % 2 == 0:
        return True, f"n={n} even"
    rows = [l for l in range(2, (n - 1) // 2 + 1, 2)]
    ok = fixed_nonempty and all(profile.t(l) == 0 for l in rows)
    return ok, f"fixed_nonempty={fixed_nonempty}, t at even degrees {rows}: {[profile.t(l) for l in rows]}"


def verify_theorem_zp(
    m_profile: CohomologyProfile,
    f_profile: CohomologyProfile,
    n: int,
    *,
    fixed_nonempty: bool,
    pd_space: bool = True,
    no_p_torsion: bool | None = None,
    cond_holds: bool | None = None,
    route: str = "zp",
) -> CongruenceVerdict:
    """Sum of t-numbers of the fixed set against the ambient space, mod 4.

    route "zp" assumes integral cohomology has no p-torsion (a declared
    flag); route "zp-fp" instead requires a nonempty fixed set and the
    vanishing of odd-page differentials from column n on (passed in as
    cond_holds).
    """
    p = m_profile.p
    hyps = [
        Hypothesis("p != 2", p != 2, f"p={p}"),
        Hypothesis("action on cohomology is nice", m_profile.is_nice(),
                   "all summands trivial or free" if m_profile.is_nice() else "non-nice summand present"),
        Hypothesis("Poincare duality space over F_p", pd_space, ""),
    ]
    ok, ev = zp_condition(m_profile, n, fixed_nonempty)
    hyps.append(Hypothesis("degree condition (n even, or odd-case t-vanishing)", ok, ev))
    if route == "zp":
        hyps.append(Hypothesis("no p-torsion in integral cohomology",
                               bool(no_p_torsion), "declared by input"))
    elif route == "zp-fp":
        hyps.append(Hypothesis("fixed set nonempty", fixed_nonempty, ""))
        hyps.append(Hypothesis("odd-page differentials vanish from column n",
                               bool(cond_holds), "checked on computed pages"))
    else:
        raise ValueError(f"unknown route {route!r}")
    return _gate(f"t-sum congruence ({route})", hyps, t_sum(f_profile), t_sum(m_profile), 4)


def verify_chi_t(
    m_profile: CohomologyProfile,
    f_profile: CohomologyProfile,
    *,
    no_p_torsion: bool,
) -> CongruenceVerdict:
    """Alternating t-sums of fixed set and ambient space agree exactly."""
    p = m_profile.p
    hyps = [
        Hypothesis("p != 2", p != 2, f"p={p}"),
        Hypothesis("action on cohomology is nice", m_profile.is_nice(), ""),
        Hypothesis("no p-torsion in integral cohomology", no_p_torsion, "declared by input"),
    ]
    return _gate("chi_t equality", hyps, chi_t(f_profile), chi_t(m_profile), 0, relation="eq")


def verify_t_inequality(
    m_profile: CohomologyProfile, f_profile: CohomologyProfile, k: int
) -> CongruenceVerdict:
    """Tail sums of t-numbers: the fixed set never exceeds the space."""
    return _gate("t tail inequality", [], t_tail_sum(f_profile, k), t_tail_sum(m_profile, k),
                 0, relation="le")


def verify_sokolov(
    m_profile: CohomologyProfile, circle_count: int, *, pd_space: bool = True
) -> CongruenceVerdict:
    """Fixed circles of a 3-manifold action: s = 1 + t^1 mod 2."""
    p = m_profile.p
    hyps = [
        Hypothesis("p != 2", p != 2, f"p={p}"),
        Hypothesis("action on cohomology is nice", m_profile.is_nice(), ""),
        Hypothesis("closed orientable 3-manifold profile", pd_space and len(m_profile) == 4, ""),
        Hypothesis("fixed set is a nonempty union of circles", circle_count > 0,
                   f"s={circle_count}"),
    ]
    return _gate("fixed-circle parity", hyps, circle_count, 1 + m_profile.t(1), 2)


def verify_torus_congruence(
    betti_m: list[int], betti_f: list[int], n: int, fixed_nonempty: bool
) -> CongruenceVerdict:
    """Betti sum congruence for circle/torus actions, on Betti data alone."""
    if n % 2 == 0:
        cond, ev = True, f"n={n} even"
    else:
        rows = [i for i in range(2, (n - 1) // 2 + 1, 2)]
        bad = [i for i in rows if i < len(betti_m) and betti_m[i]]
        cond = fixed_nonempty and not bad
        ev = f"fixed_nonempty={fixed_nonempty}, nonzero even Betti in range: {bad}"
    hyps = [Hypothesis("degree condition (n even, or odd-case Betti vanishing)", cond, ev)]
    verdict = _gate("Betti sum congruence", hyps, sum(betti_f), sum(betti_m), 4)
    if n == 3 and len(betti_f) >= 2 and betti_f[0] == betti_f[1]:
        s, b1 = betti_f[0], (betti_m[1] if len(betti_m) > 1 else 0)
        verdict.notes.append(f"fixed circles s={s}, b1={b1}")
        if verdict.verdict != "not-applicable":
            if not (s <= 1 + b1 and (s - (1 + b1)) % 2 == 0):
                verdict = CongruenceVerdict(verdict.theorem, verdict.hypotheses,
                                            verdict.lhs, verdict.rhs, 4, "fail",
                                            "mod", verdict.notes + ["circle count bound violated"])
    return verdict


def verify_bryan(
    f_surface_profile: CohomologyProfile, fixed_point_count: int
) -> CongruenceVerdict:
    """Fixed points of a surface action: 2 + dim H^1(Z/p, H_1)."""
    closed = (
        len(f_surface_profile) == 3
        and f_surface_profile.betti[0] == 1
        and f_surface_profile.betti[2] == 1
    )
    hyps = [Hypothesis("closed connected surface profile", closed,
                       f"betti={f_surface_profile.betti}"),
            Hypothesis("fixed set nonempty", fixed_point_count > 0, "")]
    h1_module = f_surface_profile.degrees[1].module.dual() if closed else None
    expected = 2 + group_cohomology(h1_module, 1).dim if h1_module is not None else None
    return _gate("surface fixed-point count", hyps, fixed_point_count,
                 expected if expected is not None else -1, 0, relation="eq")


def check_betti_chi_mod4(betti: list[int]) -> bool:
    """For an even-dimensional duality space: total Betti sum = chi mod 4."""
    total = sum(betti)
    chi = sum((-1) ** i * b for i, b in enumerate(betti))
    return (total - chi) % 4 == 0
