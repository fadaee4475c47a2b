"""Smoke test of the benchmark harness: every workload at its tiny size.

Not a timing gate.  It fails when the harness no longer runs against
this tree, for instance when a function its tracer wraps is renamed.
"""

import importlib
import importlib.util
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


# hooks whose functions were deleted before this guard; dropping them is
# harness upkeep, so the guard allows them but does not require them
STALE_HOOKS = {"lambda_ir.beta_reduce", "lambda_ir.inline_defs", "lambda_ir.inline_main", "mdl_opt._inline_item"}


def test_every_tracer_hook_target_exists():
    # a renamed hooked function would silently zero the metrics its hook feeds
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = set()
    for hook in tracing.HOOKS:
        owner = importlib.import_module(f"skic.{hook.module}")
        for part in hook.owner_path:
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, hook.attr, None)):
            missing.add(hook.name)
    assert missing <= STALE_HOOKS


def test_tiny_runs_verify_the_pinned_probe_tuples(monkeypatch):
    # the tuples verification probes in one tiny pass of each workload at
    # seed 7: exact counts, free of timing noise, so a change that probes
    # more moves them
    from skic import cli_pipeline, ski_core

    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    behavioral_equal, comparison_forms = ski_core.behavioral_equal, ski_core.comparison_forms
    verifying, counts = [False], []

    def verified(*args):
        verifying[0] = True
        try:
            return behavioral_equal(*args)
        finally:
            verifying[0] = False

    def counted(side, tuples, fuel):
        counts[-1] += len(tuples) * verifying[0]
        return comparison_forms(side, tuples, fuel)

    monkeypatch.setattr(ski_core, "behavioral_equal", verified)
    monkeypatch.setattr(ski_core, "comparison_forms", counted)
    for name in ("corpus_mix", "def_chain", "infer_wide"):
        workload = workloads.WORKLOADS[name]
        stream = workloads.ProgramStream(workload, 7, ROOT, tiny=True)
        counts.append(0)
        for _ in range(workload.rounds):
            for program in stream.next_round():
                cli_pipeline.run_pipeline(program.source, program_id=program.pid)
    assert counts == [560, 132, 6]
