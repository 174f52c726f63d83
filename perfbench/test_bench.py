"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest perfbench -q

Each workload runs once untraced and twice traced at ``--size tiny``.  The
untraced run must report every end-to-end metric BENCHMARK.json names, with
its unit, and ok_ratio = 1; the traced runs every per-layer metric, with
identical call counts in both runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _run(workload, 0)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_and_repeatable_counts(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    assert _units(first["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [
        {name: m["value"] for name, m in run["metrics"].items() if m["unit"] in ("count", "bytes_computed")}
        for run in (first, second)
    ]
    assert counts[0] == counts[1]
