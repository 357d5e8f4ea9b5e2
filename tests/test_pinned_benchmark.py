"""The benchmark's seed-0 ops still give their pinned digests.

perfbench/run.py checks every op of a seed-0 round against the sha256
digests in perfbench/pinned.json; with --seconds 0 it times one round."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from hullforge import search

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


def test_benchmark_hooks_exist():
    # perfbench/run.py reads these by name and falls back to nothing when
    # one is missing, so a rename would zero or drop its per-layer metrics
    run_py = (ROOT / "perfbench" / "run.py").read_text()
    assert '"search.sweep_children"' in run_py
    assert callable(search.sweep_children)
    for name in ("_rank3_table", "_sym_rank_lut"):
        assert f'"{name}"' in run_py, name
        assert callable(getattr(search, name).cache_info), name
