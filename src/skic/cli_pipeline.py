"""Three-layer pipeline and command-line front end.

Layer 1 parses source into the lambda IR and runs type inference with
operator specialization.  Layer 2 compresses every definition and the
main expression into combinator form under the MDL objective.  Layer 3
emits the GAEL text, a decoded lambda rendering, and pseudocode, plus a
structured report with token, density, and equivalence metrics.

Exit codes, set in `main` alone: 0 success (an `unknown` verdict prints a
warning), 1 input error, 3 equivalence violation (the compressed program
provably disagrees with its source on some probe).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from . import lambda_ir, mdl_opt, metrics, ski_core, type_infer
from .explainer import explain_term
from .lambda_ir import Program, Term
from .mdl_opt import CompressionPlan, MdlConfig
from .ski_core import RuleSet, Verdict

REPORT_SCHEMA_VERSION = 1
SOURCE_EXTENSION = ".lam"


# input errors: `main` exits 1 on one; `run_corpus` records one per program and goes on
_INPUT_ERRORS = (OSError, ValueError, lambda_ir.LambdaError)


class IncompatibleTermError(Exception):
    pass


@dataclass(frozen=True)
class PipelineReport:
    program_id: str
    p_tokens: int
    s_tokens: int
    cr: Fraction
    density_source: metrics.DensityReport
    density_gael: metrics.DensityReport
    equivalence: str
    objective: float
    map_types: dict[str, dict[str, str]]
    timings: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "program_id": self.program_id,
            "p_tokens": self.p_tokens,
            "s_tokens": self.s_tokens,
            "cr": float(self.cr),
            "cr_exact": [self.cr.numerator, self.cr.denominator],
            "density_source": self.density_source.as_dict(),
            "density_gael": self.density_gael.as_dict(),
            "equivalence": self.equivalence,
            "objective": self.objective,
            "map_types": self.map_types,
            "timings": self.timings,
        }


@dataclass(frozen=True)
class PipelineResult:
    report: PipelineReport
    plan: CompressionPlan
    gael_text: str
    lambda_text: str
    pseudocode_text: str


@dataclass(frozen=True)
class CorpusReport:
    reports: tuple[PipelineReport, ...]
    errors: tuple[tuple[str, str], ...]
    mean_cr: float
    median_cr: float
    equivalence_pass_rate: float
    mean_rho_source: float
    mean_rho_gael: float

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "programs": [r.to_dict() for r in self.reports],
            "errors": [{"program_id": pid, "error": msg} for pid, msg in self.errors],
            "aggregates": {
                "count": len(self.reports),
                "mean_cr": self.mean_cr,
                "median_cr": self.median_cr,
                "equivalence_pass_rate": self.equivalence_pass_rate,
                "mean_rho_source": self.mean_rho_source,
                "mean_rho_gael": self.mean_rho_gael,
            },
        }


# --- equivalence stage --------------------------------------------------------


def _verify_equivalence(original: Program, encoded: Program, cfg: MdlConfig) -> tuple[str, float]:
    """The worst item verdict (`different` over `unknown` over `equal`)
    and the largest item distance."""
    results = [
        ski_core.behavioral_equal(p, s, tuples, cfg.fuel)
        for p, s, tuples in mdl_opt.item_checks(original, encoded, cfg)
    ]
    worst = max((r.verdict for r in results), key=[Verdict.EQUAL, Verdict.UNKNOWN, Verdict.DIFFERENT].index)
    return worst.value, max(r.distance for r in results)


# --- target emission -----------------------------------------------------------


# primitives pseudocode renames; every other primitive keeps its name
_PSEUDO_NAMES = {"if": "if_then_else", "addZ": "int_add", "addR": "real_add"}

# the lambda and pseudocode targets print an encoded term as its decoded
# form (`ski_core.ski_decode`) would print, without building it: a
# combinator prints as its lambda's text and counts as a lambda
_LAMBDAS = (lambda_ir.Lam, lambda_ir.Comb)


def _lambda_expr(t: Term) -> str:
    if isinstance(t, lambda_ir.App):
        fun_text, arg_text = _lambda_expr(t.fun), _lambda_expr(t.arg)
        if isinstance(t.fun, _LAMBDAS):
            fun_text = f"({fun_text})"
        if isinstance(t.arg, (lambda_ir.App, *_LAMBDAS)):
            arg_text = f"({arg_text})"
        return f"{fun_text} {arg_text}"
    if isinstance(t, lambda_ir.Lam):
        sep = "" if isinstance(t.body, _LAMBDAS) else " "
        return f"\\{t.param}.{sep}{_lambda_expr(t.body)}"
    if isinstance(t, lambda_ir.Comb):
        return _LAMBDA_TEXT[t.name]
    return lambda_ir.pretty_print(t)


def _pseudo_expr(t: Term) -> str:
    match t:
        case lambda_ir.Var(name):
            return name
        case lambda_ir.IntLit(v):
            return str(v)
        case lambda_ir.BoolLit(v):
            return "true" if v else "false"
        case lambda_ir.Prim(op):
            return _PSEUDO_NAMES.get(op, op)
        case lambda_ir.Comb(name):
            return _PSEUDO_TEXT[name]
        case lambda_ir.Lam(param, body):
            return f"lambda {param}: {_pseudo_expr(body)}"
        case lambda_ir.App():
            head, args = lambda_ir.spine(t)
            head_text = _pseudo_expr(head)
            if isinstance(head, _LAMBDAS):
                head_text = f"({head_text})"
            return f"{head_text}({', '.join(_pseudo_expr(a) for a in args)})"
    raise TypeError(f"not a Term: {t!r}")


_LAMBDA_TEXT = {name: _lambda_expr(lam) for name, lam in ski_core._COMB_LAMBDAS.items()}
_PSEUDO_TEXT = {name: _pseudo_expr(lam) for name, lam in ski_core._COMB_LAMBDAS.items()}


def _pseudo_procedure(name: str, t: Term) -> str:
    params = []
    while isinstance(t, _LAMBDAS):
        if isinstance(t, lambda_ir.Comb):
            t = ski_core._COMB_LAMBDAS[t.name]
        params.append(t.param)
        t = t.body
    header = f"procedure {name}({', '.join(params)}):"
    return f"{header}\n    return {_pseudo_expr(t)}"


def emit_target(t: Term, target: str) -> str:
    """Render a term as `gael`, `lambda`, or `pseudocode` text."""
    if target == "gael" and ski_core.contains(t, lambda_ir.Lam):
        raise IncompatibleTermError("lambda node cannot be emitted as GAEL")
    return _emit_program(Program((), t), target)


def _emit_program(encoded: Program, target: str) -> str:
    """Render a program as `gael`, `lambda`, or `pseudocode` text."""
    if target == "gael":
        return ski_core.gael_print_program(encoded)
    if target == "lambda":
        return "\n".join(_lambda_expr(body) if name is None else f"{name} := {_lambda_expr(body)};"
                         for name, body in encoded.items())
    if target == "pseudocode":
        return "\n\n".join(_pseudo_procedure(name or "main", body) for name, body in encoded.items())
    raise ValueError(f"unknown target {target!r}")


# --- pipeline -------------------------------------------------------------------


def run_pipeline(
    source: str,
    cfg: MdlConfig = MdlConfig(),
    program_id: str = "program",
    density_c: float = metrics.DEFAULT_BOUND_CONSTANT,
) -> PipelineResult:
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    tokens = metrics.tokenize(source, "source")  # lexed once: the parse and p_tokens share them
    prog = lambda_ir._Parser(tokens).parse_program()
    timings["parse_s"] = time.perf_counter() - t0

    try:
        t0 = time.perf_counter()
        specialized, map_summary = type_infer.specialize_program(prog)
        timings["infer_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        plan = mdl_opt.compress_program(specialized, cfg)
        timings["compress_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        gael_text = ski_core.gael_print_program(plan.encoded)
        lambda_text = _emit_program(plan.encoded, "lambda")
        pseudo_text = _emit_program(plan.encoded, "pseudocode")
        timings["emit_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        equivalence, distance = _verify_equivalence(prog, plan.encoded, cfg)
        p_tokens = len(tokens)
        cr = metrics.compression_rate(plan.token_length, p_tokens)
        density_source = metrics.symbolic_density(source.encode("utf-8"), c=density_c)
        density_gael = metrics.symbolic_density(gael_text.encode("utf-8"), c=density_c)
        timings["metrics_s"] = time.perf_counter() - t0
    except RecursionError:
        # past the parser: long input applications, or deep terms reduction built
        raise lambda_ir.LambdaError("expression nested too deeply for the compiler's passes") from None

    report = PipelineReport(
        program_id=program_id,
        p_tokens=p_tokens,
        s_tokens=plan.token_length,
        cr=cr,
        density_source=density_source,
        density_gael=density_gael,
        equivalence=equivalence,
        objective=mdl_opt.objective(cfg, plan.token_length, distance),
        map_types=map_summary,
        timings=timings,
    )
    return PipelineResult(
        report=report,
        plan=plan,
        gael_text=gael_text,
        lambda_text=lambda_text,
        pseudocode_text=pseudo_text,
    )


def run_corpus(
    directory: Union[str, Path],
    cfg: MdlConfig = MdlConfig(),
    density_c: float = metrics.DEFAULT_BOUND_CONSTANT,
) -> CorpusReport:
    """Run the pipeline over every source file, in filename order."""
    directory = Path(directory)
    files = sorted(directory.glob(f"*{SOURCE_EXTENSION}"), key=lambda p: p.name)
    if not files:
        raise FileNotFoundError(
            f"no {SOURCE_EXTENSION} files found in {directory}"
        )
    reports: list[PipelineReport] = []
    errors: list[tuple[str, str]] = []
    for path in files:
        program_id = path.stem
        try:
            result = run_pipeline(
                path.read_text(encoding="utf-8"),
                cfg,
                program_id=program_id,
                density_c=density_c,
            )
            reports.append(result.report)
        except _INPUT_ERRORS as exc:
            errors.append((program_id, f"{type(exc).__name__}: {exc}"))

    def mean(values: list) -> float:
        return float(sum(values, Fraction(0)) / len(values)) if values else 0.0

    crs = [r.cr for r in reports]
    return CorpusReport(
        reports=tuple(reports),
        errors=tuple(errors),
        mean_cr=mean(crs),
        median_cr=float(statistics.median(crs)) if crs else 0.0,
        equivalence_pass_rate=mean([int(r.equivalence == "equal") for r in reports]),
        mean_rho_source=mean([r.density_source.rho for r in reports]),
        mean_rho_gael=mean([r.density_gael.rho for r in reports]),
    )


def corpus_csv(report: CorpusReport) -> str:
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow("program_id p_tokens s_tokens cr equivalence objective rho_source rho_gael".split())
    for r in report.reports:
        rows.writerow([r.program_id, r.p_tokens, r.s_tokens, f"{float(r.cr):.6f}", r.equivalence, f"{r.objective:.6f}",
                       f"{float(r.density_source.rho):.6f}", f"{float(r.density_gael.rho):.6f}"])
    return out.getvalue()


# --- CLI ------------------------------------------------------------------------


def _rule_set(flag: str) -> RuleSet:
    try:
        return RuleSet(flag.strip())
    except ValueError:
        expected = "|".join(r.value for r in RuleSet)
        raise ValueError(f"unknown rule set {flag.strip()!r} (expected {expected})") from None


def _config_from_args(args: argparse.Namespace) -> MdlConfig:
    rule_sets = mdl_opt.ALL_RULE_SETS
    if args.rules:
        rule_sets = tuple(map(_rule_set, args.rules.split(",")))
    if not 0 <= args.density_c < math.inf:
        raise ValueError("density bound constant must be finite and nonnegative")
    return MdlConfig(
        lambda_weight=args.lambda_weight,
        beam_width=args.beam,
        max_probes=args.probes,
        rule_sets=rule_sets,
        extraction_enabled=not args.no_extract,
        fuel=args.fuel,
    )


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    defaults = MdlConfig()
    parser.add_argument("--lambda", dest="lambda_weight", type=float,
                        default=defaults.lambda_weight,
                        help="compression weight in [0,1] (default %(default)s)")
    parser.add_argument("--beam", type=int, default=defaults.beam_width,
                        help="beam width (default %(default)s)")
    parser.add_argument("--rules", default="",
                        help="comma list of rule sets to search: naive,i,eta (default all)")
    parser.add_argument("--fuel", type=int, default=defaults.fuel,
                        help="reduction step budget (default %(default)s)")
    parser.add_argument("--probes", type=int, default=defaults.max_probes,
                        help="max probe tuples per equivalence check, at least 1 (default %(default)s)")
    parser.add_argument("--no-extract", action="store_true",
                        help="disable common-subterm extraction")
    parser.add_argument("--report", default="", help="write a JSON report to this path")
    parser.add_argument("--c", dest="density_c", type=float,
                        default=metrics.DEFAULT_BOUND_CONSTANT,
                        help="density bound constant (default %(default)s)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skic",
        description="Compress functional programs into GAEL combinator form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compress = sub.add_parser("compress", help="compress one source file")
    p_compress.add_argument("file")
    p_compress.add_argument("--emit", default="gael",
                            help="comma list of targets to print: gael,lambda,pseudo")
    _add_common_options(p_compress)
    p_compress.set_defaults(run=_cmd_compress)

    p_corpus = sub.add_parser("corpus", help="compress every source file in a directory")
    p_corpus.add_argument("dir")
    _add_common_options(p_corpus)
    p_corpus.set_defaults(run=_cmd_corpus)

    p_explain = sub.add_parser("explain", help="explain a GAEL file in controlled English")
    p_explain.add_argument("file")
    p_explain.set_defaults(run=_cmd_explain)

    p_density = sub.add_parser("density", help="density report for a file's bytes")
    p_density.add_argument("file")
    p_density.add_argument("--c", dest="density_c", type=float,
                           default=metrics.DEFAULT_BOUND_CONSTANT)
    p_density.set_defaults(run=_cmd_density)
    return parser


# each --emit target and the PipelineResult text it prints
_EMIT_TEXTS = {"gael": "gael_text", "lambda": "lambda_text",
               "pseudo": "pseudocode_text", "pseudocode": "pseudocode_text"}


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _cmd_compress(args: argparse.Namespace) -> dict[str, str]:
    targets = [t.strip() for t in args.emit.split(",") if t.strip()]
    for target in targets:
        if target not in _EMIT_TEXTS:
            raise ValueError(f"unknown emit target {target!r}")
    cfg = _config_from_args(args)
    source = Path(args.file).read_text(encoding="utf-8")
    result = run_pipeline(source, cfg, program_id=Path(args.file).stem,
                          density_c=args.density_c)
    if args.report:
        _write_json(Path(args.report), result.report.to_dict())
    for target in targets:
        print(getattr(result, _EMIT_TEXTS[target]))
    return {result.report.program_id: result.report.equivalence}


def _cmd_corpus(args: argparse.Namespace) -> dict[str, str]:
    if Path(args.report).suffix == ".csv":
        raise ValueError("corpus --report path must not end in .csv: the CSV summary is written next to it")
    cfg = _config_from_args(args)
    report = run_corpus(args.dir, cfg, density_c=args.density_c)
    if args.report:
        path = Path(args.report)
        _write_json(path, report.to_dict())
        path.with_suffix(".csv").write_text(corpus_csv(report), encoding="utf-8")
    print(corpus_csv(report), end="")
    return {r.program_id: r.equivalence for r in report.reports}


def _cmd_explain(args: argparse.Namespace) -> dict[str, str]:
    items = ski_core.parse_gael_program(Path(args.file).read_text(encoding="utf-8")).items()
    if not items:
        raise ValueError("program has no definitions and no main expression")
    print("\n\n".join(
        explain_term(body).to_text() if name is None else f"-- {name}\n{explain_term(body).to_text()}"
        for name, body in items
    ))
    return {}


def _cmd_density(args: argparse.Namespace) -> dict[str, str]:
    report = metrics.symbolic_density(Path(args.file).read_bytes(), c=args.density_c)
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return {}


def main(argv: Optional[list[str]] = None) -> int:
    """Run one `skic` command; the one place an outcome becomes an exit code.

    A command returns each compiled program's verdict.  An input error
    (unreadable or non-UTF-8 file, unwritable report, invalid option,
    rejected program) exits 1; any `different` exits 3; an `unknown`
    prints a warning and leaves the exit code 0.
    """
    args = _build_parser().parse_args(argv)
    try:
        verdicts = args.run(args)
    except _INPUT_ERRORS as exc:
        print(f"skic: error: {exc}", file=sys.stderr)
        return 1
    unknown = [pid for pid, v in verdicts.items() if v == Verdict.UNKNOWN.value]
    different = [pid for pid, v in verdicts.items() if v == Verdict.DIFFERENT.value]
    if unknown:
        print(f"skic: warning: equivalence unknown for {', '.join(unknown)}: "
              "some probe ran out of fuel or was undecided", file=sys.stderr)
    if different:
        print(f"skic: error: compressed program differs from source for {', '.join(different)}",
              file=sys.stderr)
        return 3
    return 0
