"""The independent checker accepts real reports and rejects tampered ones."""

import copy
import json

import pytest

import checker
import gen
from swanss.complexes import load_complex_json
from swanss.report import analyze_complex

# Six-vertex real projective plane: F_2 sees H^1 and H^2, F_3 sees neither.
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
       (1, 2, 4), (2, 3, 5), (1, 3, 4), (1, 3, 5), (2, 4, 5)]


def closure(tops):
    faces = {tuple(f) for t in tops for r in range(1, len(t) + 1)
             for f in __import__("itertools").combinations(t, r)}
    return sorted(faces, key=lambda s: (len(s), s))


def test_betti_over_two_fields():
    assert checker.betti(closure(RP2), 2) == [1, 1, 1]
    assert checker.betti(closure(RP2), 3) == [1, 0, 0]
    assert checker.betti(closure([(0, 1, 2, 3)])[:-1], 5) == [1, 0, 1]


def test_fixed_set_is_order_complex_of_setwise_fixed_simplices():
    assert checker.fixed_set_betti(gen.simplex_skeleton(3, 2)) == [1]
    assert checker.strip(checker.fixed_set_betti(gen.simplex_skeleton(5, 2))) == []
    semifree = gen.polygon_join(3, 3, 1, 4, 0)
    assert checker.fixed_set_betti(semifree) == [1, 1]


def analysed(data):
    return checker.InputFacts(data), analyze_complex(load_complex_json(json.dumps(data)))


@pytest.fixture(scope="module")
def semifree_join():
    return analysed(gen.polygon_join(3, 3, 1, 3, 0))


@pytest.fixture(scope="module")
def trivial_action():
    data = gen.complex_dict(3, [0, 1, 2, 3], closure([(0, 1, 2), (0, 3), (1, 3)]))
    return analysed(data)


JOIN = {"kind": "join", "free": False}


def test_real_reports_pass(semifree_join, trivial_action):
    assert checker.check_report(*semifree_join, JOIN) == []
    assert checker.check_report(*trivial_action, {"kind": "random"}) == []


def tamper_betti(r):
    r["profile"]["betti"][3] += 1


def tamper_fixed(r):
    r["fixed"]["betti"] = [1]


def tamper_tot_beyond_n(r):
    r["swan"]["tot_dims"][6] += 1


def tamper_last_page(r):
    last = r["pages"][max(r["pages"], key=int)]
    last["dims"]["2,0"] = last["dims"].get("2,0", 0) + 1


def tamper_e2(r):
    r["pages"]["2"]["dims"]["3,3"] += 1


def tamper_decomposition(r):
    r["profile"]["decompositions"][0] = {"3": 1}


def tamper_duality(r):
    r["duality"]["4"]["sspd"]["holds"] = None


@pytest.mark.parametrize("tamper", [tamper_betti, tamper_fixed, tamper_tot_beyond_n,
                                    tamper_last_page, tamper_e2, tamper_decomposition,
                                    tamper_duality])
def test_tampered_join_report_is_rejected(semifree_join, tamper):
    facts, report = semifree_join
    bad = copy.deepcopy(report)
    tamper(bad)
    assert checker.check_report(facts, bad, JOIN)


def test_kunneth_catches_trivial_action_total_dims(trivial_action):
    facts, report = trivial_action
    bad = copy.deepcopy(report)
    bad["swan"]["tot_dims"][1] += 1
    bad["pages"][max(bad["pages"], key=int)]["dims"]["1,0"] += 1
    problems = checker.check_report(facts, bad, {"kind": "random"})
    assert any("Kunneth" in p for p in problems)


CORPUS = json.dumps({"entries": [{"name": "a", "ok": True, "checks": [{"name": "c", "ok": True}]}],
                     "failed": []}, indent=2)


def test_corpus_pass_checks():
    assert checker.check_corpus(0, CORPUS, ["a"], None) == []
    assert checker.check_corpus(0, CORPUS, ["a"], CORPUS) == []
    assert checker.check_corpus(1, CORPUS, ["a"], None)
    assert checker.check_corpus(0, CORPUS, ["a", "b"], None)
    assert checker.check_corpus(0, CORPUS.replace("  ", " "), ["a"], CORPUS)
    assert checker.check_corpus(0, CORPUS.replace("true", "false"), ["a"], None)
    failed = json.loads(CORPUS)
    failed["failed"] = ["a"]
    assert checker.check_corpus(0, json.dumps(failed), ["a"], None)
    assert checker.check_corpus(0, CORPUS[:-3], ["a"], None)
