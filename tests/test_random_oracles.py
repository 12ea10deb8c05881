"""Random G-complexes through the independent oracles of perfbench/checker.py.

The checker does not import swanss: it recomputes the Betti numbers of the
input and of its fixed set by its own elimination, and holds each report to
localization, the Kunneth form, convergence of the last page, E_2 against
the module decomposition and the Euler characteristic congruence.  None of
these depends on the basis the program picks for its cohomology.
"""

import importlib.util
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from swanss.complexes import SimplicialGComplex, barycentric_subdivision
from swanss.report import analyze_complex, canonical_json
from test_quotient import orbit_closures

_CHECKER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "checker.py")
_spec = importlib.util.spec_from_file_location("independent_checker", _CHECKER)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


@settings(max_examples=40, deadline=None)
@given(orbit_closures())
def test_random_reports_pass_the_independent_checker(K):
    facts = checker.InputFacts(K.to_json())
    assert checker.check_report(facts, analyze_complex(K), {"kind": "random"}) == []


ANSWER_FIELDS = ("profile", "pd_space", "swan", "pages", "duality", "audits", "verdicts")


def _answers(report: dict) -> str:
    """The fields of a report that answer about the space, not its model."""
    answers = {field: report[field] for field in ANSWER_FIELDS}
    answers["fixed_betti"] = report["fixed"]["betti"]
    answers["quotient_betti"] = report["quotient"]["betti"]
    return canonical_json(answers)


@settings(max_examples=12, deadline=None)
@given(orbit_closures(), st.randoms(use_true_random=False))
def test_answers_do_not_depend_on_the_model(K, rnd):
    # an equivariant relabelling v -> perm[v], and one more subdivision
    perm = list(range(K.vertex_count))
    rnd.shuffle(perm)
    generator = [0] * K.vertex_count
    for v, gv in enumerate(K.generator):
        generator[perm[v]] = perm[gv]
    relabelled = SimplicialGComplex(K.p, K.vertex_count, generator,
                                    [sorted(perm[v] for v in s) for s in K.to_json()["simplices"]])
    want = _answers(analyze_complex(K))
    assert _answers(analyze_complex(relabelled)) == want
    assert _answers(analyze_complex(barycentric_subdivision(K))) == want
