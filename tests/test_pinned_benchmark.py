"""The benchmark's seed-0 ops still give their pinned digests.

perfbench/run.py checks every op of a seed-0 round against the sha256
digests in perfbench/pinned.json; with --seconds 0 it times one round."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep", "exhaustive", "verify"])
def test_seed_zero_round_matches_pinned_digests(workload):
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            *("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0"),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
