"""Every demo script runs to the end and prints exactly the pinned bytes."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = {
    "01_module_decomposition.py":
        "703f59f235215671d36737a38735f997053c98e45969e641e6d6c9eb0da3d693",
    "02_simplicial_actions.py":
        "8476422df5610fac01f4310a937f8db6b1d22e6c835c285fd496b6b3b3dce3a6",
    "03_swan_spectral_sequence.py":
        "d32bfea83063e01cd2ecaf8a448065d566d70a16a0833a809529564c61a4d51a",
    "04_duality_and_congruences.py":
        "5c7c95ba8ac1322b5124c381643c360e3626a112891a6d3996af34178d19a3f4",
    "05_synthetic_pages.py":
        "6799a8d620227ffddba19a35f7905dd6f47f04114e9d68db3b2296881383ee54",
}


def test_every_demo_is_pinned():
    assert sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py")) \
        == sorted(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_output(name):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)], capture_output=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMOS[name]
