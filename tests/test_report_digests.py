"""Reports pinned byte for byte: sha256 of the canonical JSON."""

import hashlib
import os
import subprocess
import sys

import pytest

from swanss.corpus import (
    build_circle,
    build_sphere_join,
    build_suspension_sphere,
    build_trivial_circle,
)
from swanss.report import analyze_complex, canonical_json

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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
    "join-3-1-0 k_max=30 r_max=3": (
        lambda: build_sphere_join(3, 1, 0), 30, 3,
        "6379df463414ce36158853c0af724937af72e6da0480befbf61d0ae1a12e26a8",
    ),
}

CORPUS_CIRCLE_3 = "045aacca34fc98bbea719fc2095643f99f27125608d30205a4feab34b5764367"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_digest(name):
    build, k_max, r_max, digest = REPORTS[name]
    assert _sha256(canonical_json(analyze_complex(build(), k_max, r_max))) == digest


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
