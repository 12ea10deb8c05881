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

from swanss.report import analyze_complex
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
