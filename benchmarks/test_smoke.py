"""Smoke test: each workload, at a tiny size, emits every named metric.

Run from the repository root (it is not part of the tier-1 suite)::

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "sweep_small": {"node_targets": (3, 7, 15)},
    "tree_sandwich": {"tree_depth": 2},
    "tree_proof": {"tree_depth": 3},
}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(TINY) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    workload = dataclasses.replace(run.WORKLOADS[name], **TINY[name])
    result, manifest = run.run_workload(workload, 3, 0.0, trace,
                                        run.load_library(), tmp_path)
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == wanted
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"], manifest["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(tmp_path.iterdir()) == []


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "tree_proof",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
