"""Poincare-duality conditions on spectral sequence pages, and the
congruence/inequality validators built on them.

Three dualities on a page term, each asserting the existence of a
threshold N beyond which the product pairings

    E^(k,l) x E^(k', n-l)  ->  E^(k+k', n) = K

are perfect for prescribed column parities: both even (full duality,
which also demands odd columns vanish), different parity (weak), or at
least one even (strong).  The checkers find the least workable N in the
trusted window and report every degenerate pairing with its coordinates.
`duality_flags` decides all three from one scan at N = 0 of the page
that serves a page (below): raising N only drops cells and pairs from
the check, so the least N is read off the violations found there.  The
audits read the flags of `duality_report`.

A pairing status is memoized on the term under `class_key(k, l, k', l')`,
so the flags and the propagation audit classify each class of pairs
once.  On a synthetic term the key is the pair itself.  On a computed
page it is (reduce(k), l, reduce(k'), l'), naming the cells that serve
the two factors (`pages.Page.reduce`), and it decides the status.  The
two dims and the pairing matrix are read off those cells (the matrix is
memoized on the same key by `PageTower.pairing_matrix`).  So is the
target dim: with s = s_r the page's `stable` column, reduce(k+k')
follows from reduce(k) and reduce(k').  If both are below s, they are
k and k' themselves.  Otherwise k+k' >= s, and from s on reduce(m) =
s + (m - s) mod 2 keeps only the parity of m, which reduce(k) and
reduce(k') both keep.  A negative column holds a zero cell, and the
status of a pair with a zero cell is decided before the target is read.
The pages past the one a tower converged at are served by its cells,
reduced by its `stable` column (`pages.ConvergedPage`), so their keys name
the same cells and `tower_terms` gives all of them one memo.

They share its scan too, kept on the terms under n like the memo
(`check-pd --n` may override the tower's n).  Let page r serve page
r' > r.  Then page r' has page r's dims, since its cells are page r's,
and page r's statuses, since its keys name the same cells and its
pairing matrices are page r's.  Only its trusted window
w' = K_max - 2r' is narrower than page r's w.  So a scan of page r' at
w' visits a subset of what the scan at w visits, finds the same dims
and status at each, and keeps the same order: single cells by column,
then pairs in lexicographic order.  That subset is the single cells
with k <= w' and the pairs with k + k' <= w'.  So the scan of page r' is
the scan of page r cut to those cells and pairs, and `_read_off` at w'
gives its flags.

All theorem validators are hypothesis-gated: a failed hypothesis yields
"not-applicable", never "fail".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantError
from .gmodule import CohomologyProfile, chi_t, t_sum, t_tail_sum
from .pages import PageTower
from .synthetic import matrix_rank_over


# -- term adapters -------------------------------------------------------


class ComputedTerm:
    """Adapter presenting one page of a computed tower to the checkers."""

    def __init__(self, tower: PageTower, r: int, statuses: dict | None = None,
                 scans: dict | None = None):
        self.tower = tower
        self.r = r
        self.page = tower.pages[r]
        self.field_char = tower.p
        self.trusted_k = self.page.trusted_k
        # filled by `duality._status` and `duality_flags`; shared by the
        # pages one page serves
        self.statuses: dict[tuple, str | None] = {} if statuses is None else statuses
        self.scans: dict[int, tuple] = {} if scans is None else scans

    def dim(self, k: int, l: int) -> int:
        return self.page.dim(k, l)

    def d_rank(self, k: int, l: int) -> int:
        return self.page.d_rank(k, l)

    def d_is_zero(self, k: int, l: int) -> bool:
        return self.page.d_is_zero(k, l)

    def class_key(self, k: int, l: int, k2: int, l2: int) -> tuple[int, int, int, int]:
        """The served cells of a pair: every pair with this key has its status."""
        reduce = self.page.reduce
        return reduce(k), l, reduce(k2), l2

    def pairing_matrix(self, k, l, k2, l2):
        return self.tower.pairing_matrix(self.r, k, l, k2, l2)


def tower_terms(tower: PageTower) -> dict[int, ComputedTerm]:
    """The terms of pages 2..r_max.  The pages one page serves share its
    status memo and its scans: their dims and statuses are its own, and a
    scan at its window w, cut to single cells with k <= w' and pairs with
    k + k' <= w', is the scan of a page with window w' (module docstring)."""
    memos: dict[int, tuple[dict, dict]] = {}
    return {r: ComputedTerm(tower, r, *memos.setdefault(tower.pages[r].served.r, ({}, {})))
            for r in range(2, tower.r_max + 1)}


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


def _status(term, k: int, l: int, k2: int, l2: int) -> str | None:
    """`_pairing_status`, memoized on the term under the pair's class key
    (see the module docstring): the flags and the audit ask for
    overlapping classes."""
    key = term.class_key(k, l, k2, l2)
    if key not in term.statuses:
        term.statuses[key] = _pairing_status(term, k, l, k2, l2)
    return term.statuses[key]


def _read_off(variant: str, w: int, violations: list[PairingViolation]) -> DualityFlag:
    """The flag at the least threshold N with no violation left.

    A cell (k, l) is checked while N < k, a pair while both columns are
    >= N (pd) or > N, so the least N is one past the largest threshold
    that still checks a violation.  Every violation is checked at N = 0,
    so missing product data decides the flag there.  Fewer pairs qualify
    as N grows, so if some do at that least N they do at every smaller one.
    """
    shift = variant != "pd"
    top = -1  # the largest N that still checks a violation
    for v in violations:
        if v.reason == _NO_DATA:
            return DualityFlag(variant, None, None, (0, w), violations,
                               note="product data unavailable")
        last = v.k - 1 if v.k2 < 0 else (v.k if v.k < v.k2 else v.k2) - shift
        if last > top:
            top = last
    N = top + 1
    if N > w - 3 or next(_column_pairs(variant, N, w), None) is None:
        return DualityFlag(variant, False, None, (0, w), violations)
    # (even, even) pairs alone say nothing of the mixed-parity half that
    # strong duality shares with weak duality; one fits iff N+1, N+2 does
    if variant == "sspd" and 2 * N + 3 > w:
        return DualityFlag(variant, None, None, (N, w), note=_NO_MIXED)
    return DualityFlag(variant, True, N, (N, w))


def _scan(term, n: int, w: int) -> dict[str, tuple[list, list]]:
    """The pd, wpd and sspd violations at N = 0 over columns 0..w, each
    variant's as its single cells by column and its pairs in lexicographic
    order: the order a scan of that variant alone finds them in.

    The scan reads the page's dims once, checks the single cells of every
    column and classifies each column pair with a nonzero cell once, and
    each variant keeps the violations its column parities and bound select.
    """
    dims = [[term.dim(k, l) for l in range(n + 1)] for k in range(w + 1)]
    singles: dict[str, list[PairingViolation]] = {v: [] for v in _ODD_COLUMNS}
    for k in range(1, w + 1):
        col = dims[k]
        if k % 2:
            singles["pd"] += [PairingViolation(k, l, -1, -1, "odd column not zero")
                              for l in range(n + 1) if col[l]]
        else:
            singles["pd"] += [PairingViolation(k, l, -1, -1, f"dim {col[l]} != 1")
                              for l in (0, n) if col[l] != 1]
        if col[n] != 1:
            top = PairingViolation(k, n, -1, -1, f"dim {col[n]} != 1")
            singles["sspd"].append(top)
            if k % 2:
                singles["wpd"].append(top)
    pairs: dict[str, list[PairingViolation]] = {v: [] for v in _ODD_COLUMNS}
    # the lists a column pair adds to, by its odd columns and whether both are > 0
    targets = {(odd, inner): [pairs[v] for v, allowed in _ODD_COLUMNS.items()
                              if odd in allowed and (inner or v == "pd")]
               for odd in range(3) for inner in (False, True)}
    statuses, class_key = term.statuses, term.class_key
    for k in range(w + 1):
        for k2 in range(w + 1 - k):
            lists = targets[k % 2 + k2 % 2, k > 0 and k2 > 0]
            if not lists:
                continue
            for l in range(n + 1):
                l2 = n - l
                if not (dims[k][l] or dims[k2][l2]):
                    continue  # the zero pairing on zero spaces is perfect
                key = class_key(k, l, k2, l2)
                reason = statuses[key] if key in statuses else _status(term, k, l, k2, l2)
                if reason is not None:
                    violation = PairingViolation(k, l, k2, l2, reason)
                    for found in lists:
                        found.append(violation)
    return {v: (singles[v], pairs[v]) for v in _ODD_COLUMNS}


def duality_flags(term, n: int) -> dict[str, DualityFlag]:
    """The pd, wpd and sspd flags of one page, read off one scan.

    The scan is kept on the term under n, and the pages a converged page
    serves share it (`tower_terms`).  Each page cuts its own window w out
    of the widest scan, single cells with k <= w and pairs with
    k + k' <= w (module docstring), into a list of each flag's own.
    """
    w = term.trusted_k
    if w < 3:
        return {v: DualityFlag(v, None, None, (0, w), note="trusted window too small")
                for v in _ODD_COLUMNS}
    scanned = term.scans.get(n)
    if scanned is None or scanned[0] < w:
        scanned = term.scans[n] = w, _scan(term, n, w)
    return {v: _read_off(v, w, [x for x in singles if x.k <= w]
                         + [x for x in pairs if x.k + x.k2 <= w])
            for v, (singles, pairs) in scanned[1].items()}


def duality_report(terms: dict[int, object], n: int) -> dict[int, dict[str, DualityFlag]]:
    """pd/wpd/sspd flags per page, with the internal implication checks."""
    report = {}
    for r, term in sorted(terms.items()):
        flags = duality_flags(term, n)
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
                if min(k, k2) + r + 1 > nxt.trusted_k or k + k2 > nxt.trusted_k:
                    continue
                for l in range(n + 1):
                    l2 = n - l
                    hyps = [(k, l, k2, l2)]
                    if l - r + 1 >= 0:
                        hyps.append((k + r, l - r + 1, k2 - r, l2 + r - 1))
                    if l2 - r + 1 >= 0:
                        hyps.append((k - r, l + r - 1, k2 + r, l2 - r + 1))
                    hyps += [(k, n, k2, 0), (k + r, n - r + 1, k2 - r, r - 1)]
                    if any(_status(term, *pair) is not None for pair in hyps):
                        continue
                    checked += 1
                    if nxt.dim(k + k2, n) != 1:
                        violations.append(
                            {"page": r + 1, "k": k, "l": l, "k2": k2,
                             "reason": "target row-n cell not one-dimensional"}
                        )
                        continue
                    status = _status(nxt, k, l, k2, l2)
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


def verify_betti_chi(betti: list[int], n: int) -> CongruenceVerdict:
    """Even-dimensional duality space: total Betti sum = chi mod 4."""
    hyps = [Hypothesis("even formal dimension", n % 2 == 0, f"n={n}")]
    chi = sum((-1) ** i * b for i, b in enumerate(betti))
    return _gate("even-dimension Betti/chi congruence", hyps, sum(betti), chi, 4)


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
    # H_1 is the dual of H^1, and each V_d is self-dual
    expected = 2 + f_surface_profile.decompositions[1].group_cohomology_dim(1) if closed else -1
    return _gate("surface fixed-point count", hyps, fixed_point_count, expected, 0, relation="eq")
