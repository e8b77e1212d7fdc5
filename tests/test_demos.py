"""Each demo runs to completion and prints the same bytes every time."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout; the demos are deterministic, so any
# change to these bytes is a change in what the library computes or prints
STDOUT_SHA256 = {
    "bijection_gallery.py": "b06eeffb6144e32d095fb6afe82f04931fa3d2636a48a2c9a21eb9c0b100b350",
    "identity_audit.py": "b57389cdc43f99d530969fc28b2290eb247040d8e35f6f69a2fd42da8273bc91",
    "triangle_tour.py": "a0da8c558cc6527d9d7c41d0c0c447896a00785a6418e2f0018f2a5db9446521",
    "word_families.py": "598ad518bd6dddb4c550eee4a677a72a233fc39ebb542b68196749e090adafa0",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_output(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("RASCAL_MAX_CELLS", None)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], capture_output=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo]
