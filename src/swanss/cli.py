"""Command-line interface.

Exit codes: 0 when everything passes or is gated not-applicable, 1 when
any verdict fails or an expected corpus value mismatches, 2 on input
errors (malformed JSON is reported with line and column), 3 when an
internal invariant breaks (`InvariantError`: a fault of the program, not
of its input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .complexes import (
    ComplexFileError,
    cochain_complex,
    load_complex_json,
    validate_and_regularize,
)
from .corpus import corpus_names, run_corpus, run_entry
from .duality import (
    duality_flags,
    tower_terms,
    verify_bryan,
    verify_sokolov,
    verify_theorem_zp,
    verify_torus_congruence,
    verify_chi_t,
)
from .errors import InvariantError
from .gmodule import GModule, decompose
from .pages import PageTower, check_odd_page_vanishing
from .report import (
    analyze_complex,
    canonical_json,
    fixed_circle_count,
    pd_space_check,
    regularized_profiles,
)
from .swan import SwanDoubleComplex
from .synthetic import MAX_EXTENT, load_synthetic_page


class InputError(Exception):
    pass


def _read_json_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse_json(text: str, path: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _emit(data, fmt: str):
    if fmt == "json":
        sys.stdout.write(canonical_json(data))
    else:
        _render_text(data)


def _render_text(data, indent: int = 0):
    pad = "  " * indent
    if isinstance(data, dict):
        for key, value in data.items():
            if isinstance(value, (dict, list)) and value:
                print(f"{pad}{key}:")
                _render_text(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(data, list):
        for item in data:
            if isinstance(item, (dict, list)):
                _render_text(item, indent)
                print(f"{pad}-")
            else:
                print(f"{pad}- {item}")
    else:
        print(f"{pad}{data}")


def _verdict_exit(verdicts: list[dict]) -> int:
    return 1 if any(v.get("verdict") == "fail" for v in verdicts) else 0


# -- subcommands -----------------------------------------------------------


def cmd_decompose(args) -> int:
    text = _read_json_text(args.module)
    data = _parse_json(text, args.module)
    try:
        module = GModule.from_json(data)
    except ValueError as exc:
        raise InputError(f"{args.module}: {exc}") from exc
    dec = decompose(module)
    _emit({"p": module.p, "dim": module.dim, "decomposition": dec.to_json(),
           "nice": dec.is_nice()}, args.format)
    return 0


def _load_complex(path: str):
    text = _read_json_text(path)
    _parse_json(text, path)  # surface line/column on malformed JSON first
    try:
        return load_complex_json(text), text
    except ComplexFileError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def cmd_analyze(args) -> int:
    # the duality scan grows with the square of the column window
    if args.kmax is not None and args.kmax > MAX_EXTENT:
        raise InputError(f"--kmax must not exceed {MAX_EXTENT}, not {args.kmax}")
    K, text = _load_complex(args.complex)
    report = analyze_complex(
        K,
        args.kmax,
        args.rmax,
        name=os.path.basename(args.complex),
        no_p_torsion=args.no_p_torsion,
        input_bytes=text.encode(),
    )
    _emit(report, args.format)
    bad_audit = report["audits"]["propagation"]["violations"]
    return 1 if bad_audit else _verdict_exit(report["verdicts"])


def cmd_check_pd(args) -> int:
    # with an explicit --variant the exit code is authoritative; the
    # default all-variant mode is informational (exit 0)
    if args.n is not None and args.n < 0:
        raise InputError(f"--n must not be negative, not {args.n}")
    if args.n is not None and args.n > MAX_EXTENT:
        raise InputError(f"--n must not exceed {MAX_EXTENT}, not {args.n}")
    text = _read_json_text(args.input)
    data = _parse_json(text, args.input)
    strict = args.variant is not None
    variants = [args.variant] if args.variant else ["pd", "wpd", "sspd"]
    if isinstance(data, dict) and "simplices" in data:
        K, _ = _load_complex(args.input)
        tower = PageTower(SwanDoubleComplex(cochain_complex(validate_and_regularize(K))))
        n, terms = tower.n, tower_terms(tower)
    else:
        try:
            terms = load_synthetic_page(text)
        except ValueError as exc:
            raise InputError(f"{args.input}: {exc}") from exc
        n = next(iter(terms.values())).n
    if args.n is not None:
        n = args.n
    out = {}
    for r, term in terms.items():
        flags = duality_flags(term, n)
        out[str(r)] = {v: flags[v].to_json() for v in variants}
    failed = any(page[v]["holds"] is False for page in out.values() for v in variants)
    _emit(out, args.format)
    return 1 if failed and strict else 0


def cmd_verify(args) -> int:
    verdicts = []
    if args.theorem == "torus":
        if args.betti_m is None or args.betti_f is None or args.n is None:
            raise InputError("torus verification needs --betti-m, --betti-f and --n")
        betti_m = [int(x) for x in args.betti_m.split(",")]
        betti_f = [int(x) for x in args.betti_f.split(",")]
        verdicts.append(
            verify_torus_congruence(
                betti_m, betti_f, args.n, not args.fixed_empty
            ).to_json()
        )
    elif args.entry:
        result = run_entry(args.entry)
        wanted = {
            "zp": "t-sum congruence (zp)",
            "zp-fp": "t-sum congruence (zp-fp)",
            "chi-t": "chi_t equality",
            "sokolov": "fixed-circle parity",
            "bryan": "surface fixed-point count",
        }[args.theorem]
        verdicts = [v for v in result.report.get("verdicts", []) if v["theorem"].startswith(wanted)]
        if not verdicts:
            raise InputError(
                f"corpus entry {args.entry!r} does not exercise theorem {args.theorem!r}"
            )
    elif args.complex:
        K, _ = _load_complex(args.complex)
        _, C, profile, FX, f_profile = regularized_profiles(K)
        pd_ok = pd_space_check(C)["is_pd_space"]
        n = C.top_degree
        fixed_nonempty = FX.vertex_count > 0
        if args.theorem in ("zp", "zp-fp"):
            cond = None
            if args.theorem == "zp-fp":
                tower = PageTower(SwanDoubleComplex(C))
                cond = check_odd_page_vanishing(tower)
            verdicts.append(
                verify_theorem_zp(
                    profile, f_profile, n,
                    fixed_nonempty=fixed_nonempty,
                    pd_space=pd_ok,
                    no_p_torsion=args.no_p_torsion,
                    cond_holds=cond,
                    route=args.theorem,
                ).to_json()
            )
        elif args.theorem == "chi-t":
            verdicts.append(
                verify_chi_t(profile, f_profile, no_p_torsion=args.no_p_torsion).to_json()
            )
        elif args.theorem == "sokolov":
            circles = fixed_circle_count(f_profile.betti) or 0
            verdicts.append(verify_sokolov(profile, circles, pd_space=pd_ok).to_json())
        elif args.theorem == "bryan":
            count = FX.f_vector()[0] if FX.vertex_count and FX.dim == 0 else 0
            verdicts.append(verify_bryan(profile, count).to_json())
        else:
            raise InputError(f"theorem {args.theorem!r} needs Betti data, not a complex")
    else:
        raise InputError("verify needs --entry, --complex, or torus Betti data")
    _emit({"verdicts": verdicts}, args.format)
    return _verdict_exit(verdicts)


def cmd_corpus(args) -> int:
    if args.action == "list":
        _emit({"entries": corpus_names()}, args.format)
        return 0
    names = [args.name] if args.name else None
    results = run_corpus(names)
    failed = [r.name for r in results if not r.ok]
    summary = {"entries": [r.to_json() for r in results], "failed": failed}
    if args.full_reports:
        summary["reports"] = {r.name: r.report for r in results}
    _emit(summary, args.format)
    return 1 if failed else 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swanss",
        description="Equivariant cohomology of Z/p actions: module decomposition, "
        "Swan spectral sequence, duality checks, congruence validators.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="decompose a module given as JSON")
    p_dec.add_argument("module")
    p_dec.set_defaults(func=cmd_decompose)

    p_an = sub.add_parser("analyze", help="full pipeline on a complex JSON file")
    p_an.add_argument("complex")
    p_an.add_argument("--kmax", type=int, default=None)
    p_an.add_argument("--rmax", type=int, default=None)
    p_an.add_argument("--no-p-torsion", action="store_true",
                      help="assert the integral cohomology has no p-torsion")
    p_an.set_defaults(func=cmd_analyze)

    p_pd = sub.add_parser("check-pd", help="duality conditions on a page or complex")
    p_pd.add_argument("input")
    p_pd.add_argument("--n", type=int, default=None)
    p_pd.add_argument("--variant", choices=("pd", "wpd", "sspd"), default=None)
    p_pd.set_defaults(func=cmd_check_pd)

    p_ver = sub.add_parser("verify", help="run one theorem validator")
    p_ver.add_argument("--theorem", required=True,
                       choices=("zp", "zp-fp", "chi-t", "torus", "bryan", "sokolov"))
    p_ver.add_argument("--complex", default=None)
    p_ver.add_argument("--entry", default=None, help="built-in corpus entry name")
    p_ver.add_argument("--no-p-torsion", action="store_true")
    p_ver.add_argument("--betti-m", default=None)
    p_ver.add_argument("--betti-f", default=None)
    p_ver.add_argument("--n", type=int, default=None)
    p_ver.add_argument("--fixed-empty", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_cor = sub.add_parser("corpus", help="list or run the built-in examples")
    p_cor.add_argument("action", choices=("list", "run"))
    p_cor.add_argument("name", nargs="?", default=None)
    p_cor.add_argument("--full-reports", action="store_true")
    p_cor.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
