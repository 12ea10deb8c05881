"""Reports pinned byte for byte: sha256 of the canonical JSON."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from swanss.corpus import (
    build_circle,
    build_sphere_join,
    build_suspension_sphere,
    build_trivial_circle,
)
from swanss.complexes import load_complex_json
from swanss.linalg import FactoredSolve
from swanss.report import analyze_complex, canonical_json
from swan_helpers import certificate_complex, page_three_complex

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
_GEN = os.path.join(ROOT, "perfbench", "gen.py")
_spec = importlib.util.spec_from_file_location("benchmark_inputs", _GEN)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

# circle-2 is quotient-safe after regularizing and circle-trivial-3 needs no
# subdivision at all; every other case also subdivides for its quotient
REPORTS = {
    "circle-2": (lambda: build_circle(2), None, None,
                 "caa7801089252bf38856971bfad29d16c0452fa9d25035bdb8608750ecb10682"),
    "circle-trivial-3": (lambda: build_trivial_circle(3), None, None,
                         "bdc9c4e3313deb58e3b336916626982bbc13367e166aee964dd6f33365d02229"),
    "circle-3": (lambda: build_circle(3), None, None,
                 "c23cd13a7e2b61783e2520500c7fdf99787a21b7d5a62530423d71357c52db9c"),
    "suspension-3": (lambda: build_suspension_sphere(3), None, None,
                     "f112e828e67eeccf8aa6da6cfa1ff7eba33f7fbf920ab67efc07bd861e67e65f"),
    "join-3-1-0": (lambda: build_sphere_join(3, 1, 0), None, None,
                   "16390d667d1907ba685e8019e7902d1350af3523f2e2273abffe084ad09da778"),
    "join-3-1-1": (lambda: build_sphere_join(3, 1, 1), None, None,
                   "075d305454858027e52b718c290b07373050546ee7b2bbdb67ab3d680f83f2d9"),
    "join-5-1-1": (lambda: build_sphere_join(5, 1, 1), None, None,
                   "936a2bf41ff7a840c6e448d4eee34128284a154c137ce58be0b26cdca4fde6a4"),
    "join-5-1-0": (lambda: build_sphere_join(5, 1, 0), None, None,
                   "9af0302803ffc88a198689b6257672fcc125a6261d755c7ff314372865e8109a"),
    # the one pinned input whose V-staircases need blocks past their leads
    "certificates-3": (certificate_complex, None, None,
                       "83472927b5c1cff581b80ef49d43c705b49b97275a84d1618fe363f8130fdbcf"),
    # the tower converges at page 3, below r_max = 4
    "page-three-3": (page_three_complex, None, None,
                     "895d54982e5c85b85c6ba8d637e40a13a042a3044dba673b0863afe924d8ecff"),
    "join-3-1-0 k_max=30 r_max=3": (
        lambda: build_sphere_join(3, 1, 0), 30, 3,
        "6379df463414ce36158853c0af724937af72e6da0480befbf61d0ae1a12e26a8",
    ),
}

CORPUS_CIRCLE_3 = "045aacca34fc98bbea719fc2095643f99f27125608d30205a4feab34b5764367"

# the benchmark's inputs: its generator, and the reports of the joins-large
# and random-small inputs of seed 1, each name and canonical report followed
# by a newline
GEN_PY = "f2fe051efc4673c78c01991b6daa3cc51c37a383684acc665a31e12a57c9faeb"
JOINS_LARGE_SEED_1 = "6585f21a181e16acb04e4bbad4e72ce1c18a43997046d0cdda7a7482632e1938"
RANDOM_SMALL_SEED_1 = "a4ac1110172b97e2d7eb439a39753b7e3a4ea8c0cefcf92f4e0831beabc5eb68"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_digest(name):
    build, k_max, r_max, digest = REPORTS[name]
    assert _sha256(canonical_json(analyze_complex(build(), k_max, r_max))) == digest


def test_benchmark_generator_digest():
    with open(_GEN, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GEN_PY


def _seed_1_digest(inputs) -> str:
    digest = hashlib.sha256()
    for name, data, _ in inputs(1):
        report = canonical_json(analyze_complex(load_complex_json(json.dumps(data))))
        digest.update(f"{name}\n{report}\n".encode())
    return digest.hexdigest()


def test_joins_large_seed_1_reports_digest():
    assert _seed_1_digest(gen.joins_large) == JOINS_LARGE_SEED_1


def test_random_small_seed_1_reports_digest():
    # the workload whose pages make most of the violation lists and thresholds
    assert _seed_1_digest(gen.random_small) == RANDOM_SMALL_SEED_1


def test_certificate_corrections(monkeypatch):
    # count the V-staircases with a nonzero block past their lead: the
    # classes whose band solution (`pages.PageTower._band`) is not zero, so
    # that D's longer blocks, and not only the lead's, make their d_r.  No
    # corpus input has one
    corrected = []
    solve_many = FactoredSolve.solve_many

    def counting(self, b):
        x = solve_many(self, b)
        if x is not None:
            corrected.append(int(np.count_nonzero(x.any(axis=0))))
        return x

    monkeypatch.setattr(FactoredSolve, "solve_many", counting)
    K = certificate_complex()
    report = analyze_complex(K)
    assert sum(corrected) == 7
    assert K.f_vector() == [9, 33, 33, 9]
    assert report["profile"]["decompositions"] == [{"1": 1}, {"3": 1}, {"2": 1}, {}]
    # the action is free: H*_G(K) is H*(K/G), zero past its dimension
    betti, tot = report["quotient"]["betti"], report["swan"]["tot_dims"]
    assert report["complex"]["free"]
    assert tot == betti + [0] * (len(tot) - len(betti))


def _corpus_run(*flags: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "swanss.cli", "corpus", "run", "circle-3", "--full-reports"],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def test_optimized_interpreter_prints_the_same_bytes():
    plain = _corpus_run()
    assert _sha256(plain) == CORPUS_CIRCLE_3
    assert _corpus_run("-O") == plain
