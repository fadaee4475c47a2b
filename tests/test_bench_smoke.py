"""Smoke test of the benchmark harness: every workload at its tiny size.

Not a timing gate.  It fails when the harness no longer runs against
this tree, for instance when a function its tracer wraps is renamed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--tiny", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_correctly(workload):
    result = run_bench(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0


def test_traced_run_feeds_every_per_layer_metric():
    result = run_bench("corpus_mix", trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
