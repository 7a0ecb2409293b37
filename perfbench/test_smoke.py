"""Smoke test of the benchmark itself, at a one-second run length.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload must emit exactly the metrics that BENCHMARK.json names,
each with its unit, pass its own checks, and keep the traced run's span
coverage of train steps at or above 90%. In a directory without the
package sources the benchmark must refuse to run.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = BENCH["command"][1:] + ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run([sys.executable, *cmd], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end" if trace == 0 else "per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload.startswith("train"):
        assert result["metrics"]["trace.coverage_share"]["value"] >= 0.90


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
