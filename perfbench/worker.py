"""One benchmark worker: a fresh process that imports skic and compiles a
workload in a closed loop -- one client, one program at a time, no
threads -- through the public `cli_pipeline.run_pipeline`.

Usage (normally started by run.py), from the root of a source checkout:
    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--spans PATH]

One worker makes one pass: it compiles the workload's rounds once, so
every pass of a seed compiles the same programs in the same order and
every count repeats exactly.  After each compile the worker times a
fixed reference computation; its median over the pass gives the host's
speed during the pass.  Each program's check runs between compiles,
outside the timed region.  The result is one JSON object on stdout.
"""

import sys
import time
from pathlib import Path

# `import skic` is timed before anything else is imported, as in run.py's
# set-up probes: the benchmark's own modules load standard-library modules
# that skic would otherwise load itself
SRC = (Path.cwd() / "src").resolve()
sys.path.insert(0, str(SRC))
_start = time.perf_counter()
import skic  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import skiref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# The reference computation: the benchmark's own SKI evaluator doubles a
# definition eight times, so it reduces 2^8 increments of its argument.
# It is pure Python of the same kind as skic's (tree nodes, dicts,
# recursion) and takes a few milliseconds.
_REF_DOUBLINGS = 8
REFERENCE_GAEL = "\n".join(
    ["d0 := S #addZ (K 1);"]
    + [f"d{i} := S (K d{i - 1}) d{i - 1};" for i in range(1, _REF_DOUBLINGS + 1)]
    + [f"S (K d{_REF_DOUBLINGS}) I"]
)
REFERENCE_EXPECTED = (((3,), 3 + 2**_REF_DOUBLINGS),)
# reference time measured after each compile, as a share of its time
REFERENCE_SHARE = 0.1


def reference_times(compile_s: float) -> list[float]:
    """Time the reference computation at least once and for at least
    REFERENCE_SHARE of `compile_s`."""
    times: list[float] = []
    while not times or sum(times) < REFERENCE_SHARE * compile_s:
        start = time.perf_counter()
        problems = skiref.check_program(REFERENCE_GAEL, REFERENCE_EXPECTED)
        times.append(time.perf_counter() - start)
        if problems:
            raise SystemExit(f"worker: reference computation gave {problems}")
    return times


def _report_doc(result) -> dict:
    doc = result.report.to_dict()
    doc.pop("timings", None)
    for key in ("gael_text", "lambda_text", "pseudocode_text"):
        doc[key] = getattr(result, key)
    return doc


def _check(program: workloads.Program, result) -> list[str]:
    """Independent checks of one compiled program; returns the problems."""
    problems = []
    if result.report.equivalence != "equal":
        problems.append(f"verdict {result.report.equivalence}")
    try:
        problems += skiref.check_program(result.gael_text, program.expected)
    except (skiref.EvalFailure, IndexError) as exc:
        problems.append(f"emitted GAEL unreadable: {exc}")
    try:
        emitted = skic.parse_gael_program(result.gael_text)
        terms = [body for _, body in emitted.defs] + [emitted.main] * (emitted.main is not None)
        # through the submodule, whose functions the tracer wraps
        explainer = skic.explainer
        for term in terms:
            text = explainer.explain_term(term).to_text()
            if explainer.parse_explanation(explainer.ExplanationDoc.from_text(text)) != term:
                problems.append("explanation round trip changed a term")
                break
    except Exception as exc:  # any failure of the round trip is a failed program
        problems.append(f"explanation round trip: {type(exc).__name__}: {exc}")
    return problems


def run(args) -> dict:
    if not Path(skic.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"worker: imported skic from {skic.__file__}, not from {SRC}")
    root = SRC.parent
    from skic import cli_pipeline

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        names = ("cli_pipeline", "lambda_ir", "ski_core", "mdl_opt", "metrics", "type_infer", "explainer")
        tracer.install({n: getattr(skic, n) for n in names if hasattr(skic, n)})

    workload = workloads.WORKLOADS[args.workload]
    stream = workloads.ProgramStream(workload, args.seed, root, tiny=args.tiny)
    latencies: list[float] = []
    reference: list[float] = []
    program_ids: list[str] = []
    source_tokens = 0
    failures: list[str] = []
    failed = 0
    gael_tokens = 0
    digest = hashlib.sha256()
    skipped: list[int] = []
    per_program: list[dict] = []
    for _ in range(workload.rounds):
        for program in stream.next_round():
            index = len(program_ids)
            program_ids.append(program.pid)
            source_tokens += workloads.count_tokens(program.source)
            before = dict(tracer.counts) if tracer else None
            if tracer:
                tracer.begin_program(index)
            start = time.perf_counter()
            try:
                result = cli_pipeline.run_pipeline(program.source, program_id=program.pid)
                error = None
            except Exception as exc:  # a failure is counted, never dropped
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            latencies.append(elapsed)
            reference += reference_times(elapsed)
            if tracer:
                delta = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
                per_program.append({"group": program.group, "compile_s": elapsed, "counts": delta})
            problems = [error] if error else _check(program, result)
            if problems:
                failed += 1
                failures.append(f"{program.pid}: {'; '.join(problems)}")
            if result is not None:
                skipped += tracing.skipped_variable_counts(result.report.map_types)
                gael_tokens += len(skiref.tokens(result.gael_text))
                digest.update(json.dumps(_report_doc(result), sort_keys=True).encode())
                digest.update(b"\n")
            else:
                digest.update(f"error {program.pid} {error}\n".encode())

    out = {
        "workload": workload.name,
        "seed": args.seed,
        "import_s": IMPORT_S,
        "latencies": latencies,
        "reference_s": statistics.median(reference),
        "attempted": len(latencies),
        "failed": failed,
        "failures": failures[:20],
        "gael_tokens": gael_tokens,
        "digest": digest.hexdigest(),
        "source_tokens": source_tokens,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        out["trace"] = _trace_summary(tracer, per_program, skipped, out)
        if args.spans:
            out["trace"]["spans"] = tracer.write_spans(Path(args.spans), program_ids)
            out["trace"]["spans_file"] = args.spans
    return out


def _trace_summary(tracer, per_program: list[dict], skipped: list[int], out: dict) -> dict:
    counts = dict(tracer.counts)
    buckets = dict(tracer.buckets)
    wall = tracer.inclusive.get("cli_pipeline.run_pipeline", sum(out["latencies"]))
    layers: dict[str, float] = {}
    for bucket, seconds in buckets.items():
        layer = bucket.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    layers.pop("explainer", None)  # the check's round trip, outside compiles

    rows: dict[str, list] = {}
    by_group: dict[int, list] = {}
    for p in per_program:
        by_group.setdefault(p["group"], []).append(p)
    rows["by_group"] = [
        {
            "group": g,
            "programs": len(ps),
            "compile_s_p50": statistics.median(p["compile_s"] for p in ps),
            "substitute_free_calls": sum(p["counts"].get("ski_core.substitute_free.calls", 0) for p in ps),
            "probes": sum(
                p["counts"].get("ski_core.probe.calls.search", 0) + p["counts"].get("ski_core.probe.calls.verify", 0)
                for p in ps
            ),
            "steps": sum(p["counts"].get("ski_core.steps", 0) + p["counts"].get("lambda_ir.steps", 0) for p in ps),
            "assignments": sum(p["counts"].get("type_infer.assignments", 0) for p in ps),
        }
        for g, ps in sorted(by_group.items())
    ]
    rows["by_probe_arity"] = [
        {"arity": a, "probes": int(r["probes"]), "probe_s": r["probe_s"]}
        for a, r in sorted(tracer.rows["probe_arity"].items())
    ]
    skipped_by_n: dict[int, int] = {}
    for n in skipped:
        skipped_by_n[n] = skipped_by_n.get(n, 0) + 1
    rows["by_variables"] = [
        {
            "variables": n,
            "items": int(r["items"]),
            "specialised": int(r["specialised"]),
            "skipped": skipped_by_n.get(n, 0),
            "posterior_s": r["posterior_s"],
            "assignments": int(r["assignments"]),
        }
        for n, r in sorted(tracer.rows["variables"].items())
    ]
    return {
        "wall_s": wall,
        "buckets": buckets,
        "inclusive": dict(tracer.inclusive),
        "layers": layers,
        "counts": counts,
        "rows": rows,
        "skipped_items": len(skipped),
        "missing_hooks": tracer.missing,
        "unfired_hooks": tracer.unfired(),
        "unfed_metrics": sorted(tracer.unfed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default="")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
