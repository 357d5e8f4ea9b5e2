"""The benchmark's own tests: tiny-scale runs of every workload.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(workload, seed=bench.DEFAULT_SEED, trace=False, corrupt=None):
    return bench.run(workload, seed, 0, trace, scale="tiny", corrupt=corrupt, setup_count=1)


def test_spec_lists_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.per_layer_units()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result = _tiny(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    result = _tiny(workload, seed=7, trace=True)
    assert result["correct"], result["detail"]["errors"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.per_layer_units()


@pytest.mark.parametrize("seed", [bench.DEFAULT_SEED, 3])
def test_corrupted_output_counts_as_failed(seed):
    # dropping one record must fail the pinned digest and the oracle alike
    result = _tiny("sweep", seed=seed, corrupt=lambda lines: lines[:-1])
    assert result["detail"]["fail_ratio"] > 0
    assert result["failed"] > 0 and not result["correct"]


def test_same_seed_same_outputs_and_counts():
    a = _tiny("sweep", seed=5, trace=True)
    b = _tiny("sweep", seed=5, trace=True)
    assert a["detail"]["round_digest"] == b["detail"]["round_digest"]
    assert a["detail"]["traced_round_digest"] == a["detail"]["round_digest"]

    def counts(r):
        return {
            k: v["value"]
            for k, v in r["metrics"].items()
            if k.endswith(".calls") or k.endswith("constructs_per_record")
        }

    assert counts(a) == counts(b)
    assert counts(a)["search.sweep.constructs_per_record"] == 1.0


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
