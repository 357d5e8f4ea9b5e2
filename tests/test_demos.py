"""The demos print exactly the bytes they printed when these digests were
taken; every demo is deterministic, so any change to its output shows."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "covering_radius_pipeline.py": "ac9d206dda1872047a0bd8b469fee748f4e512d42be44428b6ac205a272ba5b6",
    "hull_controlled_search.py": "1b5e9c13b1f1b4d66da83b2143d6ea1b5a9a4b359c9e525282ce199f67ba92b6",
    "lengthen_walkthrough.py": "54fec4e7e0f5fb2ed95ae26d05b7c6395c569f594964c987dd34c40ff9f15bd6",
    "quantum_parameters.py": "29d3ac999a4518254a1f740b1b208fb42ff2c15d286c2174b1cfd4af19fc37f3",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
