"""Independent checks of swanss reports.

Nothing here imports swanss.  Betti numbers come from this module's own
elimination over F_p, run on the input complex as given (before any
subdivision); everything else is a property every correct report must
have: localization onto the fixed set, the Kunneth form for trivial
actions, convergence of the last page to the total complex, E_2 against
the reported module decomposition, and the Euler characteristic
congruence.  Each check returns a list of problems; an empty list means
the report passed.
"""

from __future__ import annotations

import json


def rank_mod(rows: list[dict[int, int]], p: int) -> int:
    """Rank over F_p of a matrix given as sparse rows {column: value}.

    Gauss-Jordan on rows, pivoting on the smallest column of each row.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], p - 2, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                break
            factor = row[c]
            for k, v in pivots[c].items():
                nv = (row.get(k, 0) - factor * v) % p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


def betti(simplices, p: int) -> list[int]:
    """F_p Betti numbers of a simplicial complex (closed under faces)."""
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(tuple(s))
    top = max(by_dim, default=-1)
    index = {d: {s: i for i, s in enumerate(by_dim[d])} for d in by_dim}
    ranks = [0] * (top + 2)
    for d in range(1, top + 1):
        rows = []
        for s in by_dim[d]:
            rows.append({index[d - 1][s[:j] + s[j + 1:]]: (-1) ** j for j in range(len(s))})
        ranks[d] = rank_mod(rows, p)
    return [len(by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1)]


def fixed_set_betti(data: dict) -> list[int]:
    """Betti numbers of |K|^G: the order complex of the setwise-fixed simplices."""
    gen = data["generator"]
    fixed = [tuple(s) for s in data["simplices"] if sorted(gen[v] for v in s) == list(s)]
    index = {s: i for i, s in enumerate(fixed)}
    above = {s: [t for t in fixed if len(t) > len(s) and set(s) <= set(t)] for s in fixed}
    chains: list[tuple[int, ...]] = []
    stack = [(s,) for s in fixed]
    while stack:
        chain = stack.pop()
        chains.append(tuple(sorted(index[s] for s in chain)))
        stack.extend(chain + (t,) for t in above[chain[-1]])
    return betti(chains, data["p"])


def strip(values: list[int]) -> list[int]:
    out = list(values)
    while out and out[-1] == 0:
        out.pop()
    return out


class InputFacts:
    """What the checker computes from an input file, once per input."""

    def __init__(self, data: dict):
        self.p = data["p"]
        self.dim = max(len(s) for s in data["simplices"]) - 1
        self.betti = betti(data["simplices"], self.p)
        self.fixed_betti = strip(fixed_set_betti(data))
        self.free = not self.fixed_betti
        self.trivial = all(g == v for v, g in enumerate(data["generator"]))


def check_report(facts: InputFacts, report: dict, meta: dict) -> list[str]:
    """Problems with one `analyze_complex` report; [] when it passes."""
    problems = []
    p, n = facts.p, facts.dim

    def expect(what, want, got):
        if want != got:
            problems.append(f"{what}: expected {want}, got {got}")

    betti_k = report["profile"]["betti"]
    expect("Betti numbers", facts.betti, betti_k)
    fixed_betti = strip(report["fixed"]["betti"])
    expect("fixed-set Betti numbers", facts.fixed_betti, fixed_betti)
    expect("fixed set empty", facts.free, report["fixed"]["empty"])

    chi = sum((-1) ** i * b for i, b in enumerate(betti_k))
    chi_f = sum((-1) ** i * b for i, b in enumerate(fixed_betti))
    if (chi - chi_f) % p:
        problems.append(f"chi(K) = {chi} is not chi(K^G) = {chi_f} mod {p}")

    tot = report["swan"]["tot_dims"]
    limit = min(report["swan"]["trusted_total_degree"], len(tot) - 1)
    if limit <= n + 1:
        problems.append(f"trusted total degree {limit} leaves nothing past n = {n}")
    localized = sum(facts.fixed_betti)
    for s in range(n + 1, limit + 1):
        expect(f"tot_dims[{s}] (localization)", localized, tot[s])
    if facts.trivial:
        for s in range(limit + 1):
            expect(f"tot_dims[{s}] (Kunneth)", sum(facts.betti[: s + 1]), tot[s])

    pages = report["pages"]
    last = pages[str(max(int(r) for r in pages))]
    for s in range(min(last["trusted_k"], limit) + 1):
        diag = sum(d for key, d in last["dims"].items() if sum(map(int, key.split(","))) == s)
        expect(f"antidiagonal {s} of the last page (convergence)", tot[s], diag)

    if "2" in pages:
        e2 = pages["2"]
        for l, dec in enumerate(report["profile"]["decompositions"]):
            mult = {int(d): m for d, m in dec.items()}
            expect(f"V-decomposition of H^{l} adds up to b_{l}",
                   betti_k[l], sum(d * m for d, m in mult.items()))
            summands = sum(mult.values())
            non_free = summands - mult.get(p, 0)
            for k in range(e2["trusted_k"] + 1):
                want = summands if k == 0 else non_free
                expect(f"E_2^({k},{l}) (group cohomology)", want, e2["dims"].get(f"{k},{l}", 0))

    if meta.get("kind") == "join":
        expect("join Betti numbers", [1, 0, 0, 1], betti_k)
        want = [1, 1, 1, 1] if meta["free"] else [1, 1, 1] + [2] * (len(tot) - 3)
        expect("join total dims", (want + [0] * len(tot))[: len(tot)], tot)
        if not meta["free"]:
            for r in range(2, n + 3):
                for flag in ("wpd", "sspd"):
                    held = report["duality"][str(r)][flag]["holds"]
                    expect(f"{flag} on page {r}", True, held)
    return problems


def check_corpus(exit_code: int, text: str, names: list[str], first: str | None) -> list[str]:
    """Problems with one `swanss corpus run` pass; `first` is the first pass's output."""
    problems = []
    if exit_code != 0:
        problems.append(f"corpus run exited {exit_code}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return problems + [f"corpus output is not JSON: {exc}"]
    if data.get("failed"):
        problems.append(f"failed entries {data['failed']}")
    got = [e["name"] for e in data.get("entries", [])]
    if got != names:
        problems.append(f"entries {got} are not the corpus {names}")
    for entry in data.get("entries", []):
        bad = [c["name"] for c in entry["checks"] if not c["ok"]]
        if not entry["ok"] or bad:
            problems.append(f"entry {entry['name']} not ok: {bad}")
    if first is not None and text != first:
        problems.append("corpus output differs between passes")
    return problems

