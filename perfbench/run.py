"""skic benchmark: compile one workload end to end and print its metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload corpus_mix --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: set-up (the
wall time of `import skic` in fresh processes), then passes of a closed
loop, each in a fresh worker process that compiles the workload's rounds
once, until the next pass would end after --seconds, and at least
MIN_PASSES passes.  Every pass compiles the same programs.  A program's
latency is its fastest pass; its relative cost (compile_ref.*) is its
compile time over the reference computation timed in the same pass,
the median over passes.  --trace 1 makes two passes: one with per-layer tracing
and one without, which gives the tracing overhead.  The last line of standard
output is one JSON object; the lines before it are a readable report.
Run records and span files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

TIME_LIMIT_S = 170.0  # the whole run, set-up and checks included
SETUP_PROBES = 5
# Each pass runs in a fresh process, so nothing one pass computed helps
# the next; a program's relative cost is the median of at least three.
MIN_PASSES = 3
# The end-to-end metrics of the result line.  Seconds move with the host:
# its speed shifts by up to 1.3x for minutes at a time, which the fastest
# of a few passes cannot hide, so programs_per_s and compile_s.p50 are
# printed but left out.  compile_ref.* divide each compile by the
# reference computation timed in the same pass, and the host's speed cancels.
# failed_share and compile_s.p90 are printed only: the result line
# carries failed and attempted, and p90 exists only for corpus_mix.
RESULT_METRICS = ("setup_s", "compile_ref.p50", "compile_ref.mean", "peak_rss_mb", "gael_tokens", "equal_rate")
IMPORTTIME_PROBES = 3

_IMPORT_PROBE = (
    "import sys, time; from pathlib import Path; src = Path(sys.argv[1]).resolve(); "
    "sys.path.insert(0, str(src)); t = time.perf_counter(); import skic; "
    "t = time.perf_counter() - t; "
    "assert Path(skic.__file__).resolve().is_relative_to(src), skic.__file__; print(t)"
)


class RunFailed(Exception):
    pass


class Runner:
    def __init__(self, root: Path):
        self.root = root
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def python(self, args: list[str]) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed("time limit reached")
        proc = subprocess.Popen(
            [sys.executable] + args, cwd=self.root,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunFailed(f"time limit reached in {' '.join(args[:2])}")
        if proc.returncode != 0:
            raise RunFailed(f"{' '.join(args[:2])} exited {proc.returncode}: {err.strip()[-2000:]}")
        return subprocess.CompletedProcess(args, 0, out, err)

    def import_times(self) -> list[float]:
        src = str(self.root / "src")
        self.python(["-c", _IMPORT_PROBE, src])  # writes bytecode caches
        return [float(self.python(["-c", _IMPORT_PROBE, src]).stdout) for _ in range(SETUP_PROBES)]

    def importtime_breakdown(self) -> tuple[float, float]:
        """Median cumulative `import skic` and numpy times from -X importtime."""
        code = "import sys; sys.path.insert(0, sys.argv[1]); import skic"
        skic_s, numpy_s = [], []
        for _ in range(IMPORTTIME_PROBES):
            err = self.python(["-X", "importtime", "-c", code, str(self.root / "src")]).stderr
            found = {}
            for line in err.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() in ("skic", "numpy"):
                    found[parts[2].strip()] = int(parts[1]) / 1e6
            skic_s.append(found.get("skic", 0.0))
            numpy_s.append(found.get("numpy", 0.0))
        return statistics.median(skic_s), statistics.median(numpy_s)

    def worker(self, workload: str, seed: int, extra: list[str]) -> dict:
        args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)] + extra
        return json.loads(self.python(args).stdout.splitlines()[-1])

    def passes(self, workload: str, seed: int, seconds: float, extra: list[str]) -> list[dict]:
        """Passes until the next one would end after `seconds`."""
        start = time.monotonic()
        runs, last = [], 0.0
        while len(runs) < MIN_PASSES or time.monotonic() - start + last <= seconds:
            began = time.monotonic()
            runs.append(self.worker(workload, seed, extra))
            last = time.monotonic() - began
        return runs


# --- metrics --------------------------------------------------------------------


def merge_passes(runs: list[dict]) -> dict:
    """One record for a run's passes: each program's fastest latency, and
    every compile of every pass counted as attempted."""
    first = runs[0]
    # each compile over its pass's reference time; the median over passes
    relative = zip(*([t / r["reference_s"] for t in r["latencies"]] for r in runs))
    return {
        "latencies": [min(lat) for lat in zip(*(r["latencies"] for r in runs))],
        "relative": [statistics.median(rel) for rel in relative],
        "reference_s": statistics.median(r["reference_s"] for r in runs),
        "programs": first["attempted"],
        "passes": len(runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]][:20],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "gael_tokens": first["gael_tokens"],
        "digest": first["digest"],
        "same_outputs": all(r["digest"] == first["digest"] for r in runs),
    }


def end_to_end(run: dict, setup: list[float]) -> tuple[dict, list[tuple]]:
    lat, rel = run["latencies"], run["relative"]
    n, attempted = run["programs"], run["attempted"]
    rows = [
        ("setup_s", statistics.median(setup), "s", len(setup)),
        ("compile_ref.p50", statistics.median(rel), "ref", n),
        ("compile_ref.mean", statistics.fmean(rel), "ref", n),
        ("programs_per_s", n / sum(lat), "1/s", n),
        ("compile_s.p50", statistics.median(lat), "s", n),
    ]
    if n >= 100:  # at least ten samples lie beyond the 90th percentile
        rows.append(("compile_s.p90", statistics.quantiles(lat, n=10)[-1], "s", n))
    rows += [
        ("peak_rss_mb", run["peak_rss_mb"], "MB", run["passes"]),
        ("gael_tokens", run["gael_tokens"], "tokens", n),
        ("equal_rate", (attempted - run["failed"]) / attempted, "share", attempted),
        ("failed_share", run["failed"] / attempted, "share", attempted),
    ]
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    return metrics, rows


def per_layer(traced: dict, plain: dict, imports: tuple[float, float]) -> tuple[dict, list[tuple]]:
    t = traced["trace"]
    b, c, inc = t["buckets"], t["counts"], t["inclusive"]
    source = c.get("ski_core.probe.source", 0)
    parse_s = b.get("lambda_ir.parse_s", 0.0)
    values = [
        ("ski_core.substitute_free.calls", c.get("ski_core.substitute_free.calls", 0), "count"),
        ("ski_core.inline_s", b.get("ski_core.inline_s", 0.0), "s"),
        ("ski_core.probe.calls.search", c.get("ski_core.probe.calls.search", 0), "count"),
        ("ski_core.probe.calls.verify", c.get("ski_core.probe.calls.verify", 0), "count"),
        ("ski_core.probe.repeat_share", c.get("ski_core.probe.repeats", 0) / source if source else 0.0, "share"),
        ("ski_core.probe_s", b.get("ski_core.probe_s", 0.0), "s"),
        ("ski_core.steps", c.get("ski_core.steps", 0), "count"),
        ("ski_core.reduce_s", b.get("ski_core.reduce_s", 0.0), "s"),
        ("ski_core.verify_s", inc.get("ski_core.behavioral_equal", 0.0), "s"),
        ("lambda_ir.parse_s", parse_s, "s"),
        ("lambda_ir.parse.tokens_per_s", traced["source_tokens"] / parse_s if parse_s else 0.0, "1/s"),
        ("lambda_ir.normalize.calls", c.get("lambda_ir.normalize.calls", 0), "count"),
        ("lambda_ir.normalize_s", b.get("lambda_ir.normalize_s", 0.0), "s"),
        ("lambda_ir.steps", c.get("lambda_ir.steps", 0), "count"),
        ("lambda_ir.substitute.calls", c.get("lambda_ir.substitute.calls", 0), "count"),
        ("type_infer.s", b.get("type_infer.s", 0.0), "s"),
        ("type_infer.variables", c.get("type_infer.variables", 0), "count"),
        ("type_infer.assignments", c.get("type_infer.assignments", 0), "count"),
        ("type_infer.skipped_items", t["skipped_items"], "count"),
        ("mdl_opt.search_s", b.get("mdl_opt.search_s", 0.0), "s"),
        ("mdl_opt.extract_s", b.get("mdl_opt.extract_s", 0.0), "s"),
        ("mdl_opt.encodes", c.get("mdl_opt.encodes", 0), "count"),
        ("mdl_opt.distance.calls", c.get("mdl_opt.distance.calls", 0), "count"),
        ("mdl_opt.extract_moves", c.get("mdl_opt.extract_moves", 0), "count"),
        ("metrics.tokenize.calls", c.get("metrics.tokenize.calls", 0), "count"),
        ("metrics.tokenize_s", b.get("metrics.tokenize_s", 0.0), "s"),
        ("metrics.density_s", b.get("metrics.density_s", 0.0), "s"),
        ("cli_pipeline.emit_s", b.get("cli_pipeline.emit_s", 0.0), "s"),
        ("cli_pipeline.other_s", b.get("cli_pipeline.other_s", 0.0), "s"),
        ("explainer.roundtrip_s", b.get("explainer.roundtrip_s", 0.0), "s"),
        ("explainer.sentences", c.get("explainer.sentences", 0), "count"),
        ("import.skic_s", imports[0], "s"),
        ("import.numpy_s", imports[1], "s"),
        ("trace.overhead", sum(traced["latencies"]) / sum(plain["latencies"]), "ratio"),
    ]
    values = [v for v in values if v[0] not in set(t["unfed_metrics"])]
    return {name: {"value": value, "unit": unit} for name, value, unit in values}, values


def reason_check(workload: str, trace: dict) -> str:
    """Does the traced run confirm why the workload was chosen?"""
    layers, b, wall = trace["layers"], trace["buckets"], trace["wall_s"]
    if workload == "infer_wide":
        share = b.get("type_infer.s", 0.0) / wall
        return f"type_infer.s is {share:.1%} of traced compile time (reason needs > 50%): {share > 0.5}"
    if workload == "def_chain":
        share = (layers.get("mdl_opt", 0.0) + layers.get("ski_core", 0.0)) / wall
        probing = b.get("lambda_ir.normalize_s", 0.0) / wall
        return (f"mdl_opt + ski_core are {share:.1%} of traced compile time (reason needs > 90%): {share > 0.9}; "
                f"the source-side normalisation probing runs in lambda_ir adds {probing:.1%}")
    probing = layers.get("ski_core", 0.0) + b.get("lambda_ir.normalize_s", 0.0)
    others = dict(layers)
    others.pop("ski_core", None)
    others["lambda_ir"] = others.get("lambda_ir", 0.0) - b.get("lambda_ir.normalize_s", 0.0)
    largest = max(others, key=others.get)
    holds = probing > others[largest]
    return (f"probing (ski_core + lambda_ir normalisation) is {probing / wall:.1%} of traced compile time; "
            f"next largest layer {largest} {others[largest] / wall:.1%} (reason needs probing largest): {holds}")


# --- printing ------------------------------------------------------------------------


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    for row in rows:
        count = f"  n={row[3]}" if len(row) > 3 else ""
        print(f"  {row[0]:<32} {_fmt(row[1]):>14} {row[2]:<7}{count}")


def print_scaling(workload: workloads.Workload, trace: dict) -> None:
    rows = trace["rows"]
    if workload.name == "corpus_mix":
        print("scaling by probe arity (traced):")
        print(f"  {'arity':>5} {'probes':>8} {'probe_s':>10}")
        for r in rows["by_probe_arity"]:
            print(f"  {r['arity']:>5} {r['probes']:>8} {r['probe_s']:>10.4f}")
    elif workload.name == "infer_wide":
        print("scaling by inference variables per item (traced):")
        print(f"  {'vars':>4} {'items':>6} {'specialised':>11} {'skipped':>7} {'posterior_s':>11} {'assignments':>11}")
        for r in rows["by_variables"]:
            print(f"  {r['variables']:>4} {r['items']:>6} {r['specialised']:>11} {r['skipped']:>7} "
                  f"{r['posterior_s']:>11.4f} {r['assignments']:>11}")
    else:
        print("scaling by definition count (traced):")
        print(f"  {'defs':>4} {'programs':>8} {'compile_s_p50':>13} {'substitute_free':>15} {'probes':>8} {'steps':>9}")
        for r in rows["by_group"]:
            print(f"  {r['group']:>4} {r['programs']:>8} {r['compile_s_p50']:>13.4f} "
                  f"{r['substitute_free_calls']:>15} {r['probes']:>8} {r['steps']:>9}")


# --- main --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="skic benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes (seconds, not minutes)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "skic" / "__init__.py").is_file():
        print(f"run.py: no skic sources under {root / 'src'}; run from a checkout's root", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tiny = "-tiny" if args.tiny else ""
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}{tiny}"
    # one span file per workload (the latest traced run): they are large
    spans = out_dir / f"{workload.name}{tiny}-spans.tsv.gz"
    runner = Runner(root)
    extra = ["--tiny"] if args.tiny else []
    record: dict = {"workload": workload.name, "why": workload.why, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace == 0:
            setup = runner.import_times()
            runs = runner.passes(workload.name, args.seed, args.seconds, extra)
            # each worker times `import skic` before it imports anything else
            setup += [r["import_s"] for r in runs]
            run = merge_passes(runs)
            metrics, rows = end_to_end(run, setup)
            correct = run["failed"] == 0 and run["same_outputs"]
            print(f"workload {workload.name} seed {args.seed}: {workload.why}")
            print(f"closed loop, 1 client, {run['programs']} distinct programs in {workload.rounds} rounds, "
                  f"{run['passes']} passes; {sum(sum(r['latencies']) for r in runs):.2f} s of compile time; "
                  f"failed {run['failed']} of {run['attempted']}; same outputs in every pass: {run['same_outputs']}")
            print(f"reference computation: {run['reference_s'] * 1e3:.4g} ms (median over passes)")
            print_table("end-to-end metrics (tracing off; compile_ref.* over reference time, "
                        "median of passes; seconds from each program's fastest pass):", rows)
        else:
            traced = runner.worker(workload.name, args.seed, extra + ["--trace", "--spans", str(spans)])
            plain = runner.worker(workload.name, args.seed, extra)
            imports = runner.importtime_breakdown()
            metrics, rows = per_layer(traced, plain, imports)
            run = traced
            same = traced["digest"] == plain["digest"]
            correct = traced["failed"] == 0 and plain["failed"] == 0 and same
            trace = traced["trace"]
            print(f"workload {workload.name} seed {args.seed}: traced {traced['attempted']} programs "
                  f"(one pass), {trace['spans']} spans -> {trace['spans_file']}")
            if trace["missing_hooks"]:
                print(f"missing hooks (their metrics are absent): {', '.join(trace['missing_hooks'])}")
            if trace["unfired_hooks"]:
                print(f"hooks installed but never called: {', '.join(trace['unfired_hooks'])}")
            print_table("per-layer metrics (traced run):", rows)
            print("layer self time, share of traced compile time:")
            for layer, seconds in sorted(trace["layers"].items(), key=lambda kv: -kv[1]):
                print(f"  {layer:<14} {seconds:10.4f} s {seconds / trace['wall_s']:7.1%}")
            print("reason check: " + reason_check(workload.name, trace))
            print_scaling(workload, trace)
            print(f"traced and untraced outputs identical: {same}")
            record["plain_digest"] = plain["digest"]
            record["counters"] = dict(sorted(trace["counts"].items()))
            record["trace"] = trace
        print(f"report digest (timings excluded) over one pass: {run['digest']}")
        for failure in run["failures"]:
            print(f"FAILED {failure}")
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    record.update({"metrics": metrics, "digest": run["digest"], "gael_tokens": run["gael_tokens"],
                   "attempted": run["attempted"], "failed": run["failed"], "failures": run["failures"]})
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace == 0:
        metrics = {k: v for k, v in metrics.items() if k in RESULT_METRICS}
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
