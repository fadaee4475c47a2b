import argparse
import contextlib
import csv
import dataclasses
import inspect
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skic import cli_pipeline as CP
from skic import lambda_ir as L
from skic import mdl_opt as MD
from skic import metrics as M
from skic import ski_core as SK
from skic.mdl_opt import MdlConfig

from conftest import CORPUS_DIR, gen_mixed_term

HIGHER_ORDER_DIR = Path(__file__).resolve().parent / "fixtures" / "higher_order"


# --- run_pipeline ------------------------------------------------------------------


def test_identity_program_report():
    res = CP.run_pipeline(r"\x. x", program_id="identity")
    assert res.gael_text == "I"
    assert res.report.p_tokens == 4
    assert res.report.s_tokens == 1
    assert res.report.cr == Fraction(3, 4)
    assert res.report.equivalence == "equal"


def test_add2_fixture_end_to_end():
    res = CP.run_pipeline("add2 := \\x. #add x 2;\nadd2 5")
    assert res.report.equivalence == "equal"
    main = SK.inline_ski_defs(res.plan.encoded)[None]
    assert SK.ski_reduce(main) == L.IntLit(7)
    # the decoded lambda rendering reduces to 7 as well
    decoded = L.parse_program(res.lambda_text)
    assert SK.ski_reduce(SK.inline_ski_defs(decoded)[None]) == L.IntLit(7)


def test_pipeline_specializes_addition():
    res = CP.run_pipeline("add2 := \\x. #add x 2;\nadd2 5")
    assert "#addZ" in res.gael_text
    assert res.report.map_types["add2"]
    assert all(tag == "INT" for tag in res.report.map_types["add2"].values())


def test_report_fields_recomputable():
    res = CP.run_pipeline("sq := \\x. #mul x x;\nsq 4")
    r = res.report
    assert r.cr == 1 - Fraction(r.s_tokens, r.p_tokens)
    assert r.p_tokens == M.token_count("sq := \\x. #mul x x;\nsq 4", "source")
    assert r.s_tokens == M.token_count(res.gael_text, "gael")
    d = r.to_dict()
    assert d["cr_exact"] == [r.cr.numerator, r.cr.denominator]
    assert d["density_source"]["rho"] == float(r.density_source.rho)


def test_pipeline_deterministic_reports():
    src = "f := \\x.\\y. #add (#mul x x) y;\nf 2 3"
    a = CP.run_pipeline(src).report.to_dict()
    b = CP.run_pipeline(src).report.to_dict()
    del a["timings"], b["timings"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_carries_each_stage_timing():
    timings = CP.run_pipeline("sq := \\x. #mul x x;\nsq 4").report.to_dict()["timings"]
    assert set(timings) == {"parse_s", "infer_s", "compress_s", "emit_s", "metrics_s"}
    assert all(isinstance(v, float) and v >= 0 for v in timings.values())


def test_parse_error_propagates():
    with pytest.raises(L.ParseError):
        CP.run_pipeline("\\x. (x")


# --- emit_target ----------------------------------------------------------------------


def test_emit_gael_atoms_and_parens():
    assert CP.emit_target(SK.I, "gael") == "I"
    assert CP.emit_target(L.apply_spine(SK.S, SK.K, SK.K), "gael") == "S K K"
    assert CP.emit_target(L.App(SK.S, L.App(SK.K, SK.I)), "gael") == "S (K I)"


def test_emit_gael_rejects_lambda():
    with pytest.raises(CP.IncompatibleTermError):
        CP.emit_target(L.parse_term(r"\x. x"), "gael")


def test_emit_gael_accepts_lambda_free_term():
    t = L.parse_term("#add 1 2", allow_free=True)
    assert CP.emit_target(t, "gael") == "#add 1 2"


def test_emit_lambda_decodes():
    out = CP.emit_target(L.apply_spine(SK.K, L.IntLit(5)), "lambda")
    assert L.alpha_equivalent(L.parse_term(out), L.parse_term(r"(\x.\y. x) 5"))


def test_emit_pseudocode():
    t = L.parse_term(r"\x.\y. #addZ x y")
    text = CP.emit_target(t, "pseudocode")
    assert text == "procedure main(x, y):\n    return int_add(x, y)"


def test_emit_unknown_target():
    with pytest.raises(ValueError):
        CP.emit_target(SK.I, "brainfuck")


def _decoding_path(prog: L.Program, target: str) -> str:
    """The `lambda` or `pseudocode` text of `prog` by the path the
    printers replace: decode every body, then print the lambda terms."""
    decoded = L.Program.of_items([(name, SK.ski_decode(body)) for name, body in prog.items()])
    return L.pretty_print_program(decoded) if target == "lambda" else CP._emit_program(decoded, target)


@pytest.mark.parametrize("term, lambda_text, pseudocode", [
    (L.Lam("x", L.App(SK.S, L.Var("x"))), r"\x. (\x.\y.\z. x z (y z)) x",
     "procedure main(x):\n    return (lambda x: lambda y: lambda z: x(z, y(z)))(x)"),
    (L.Lam("x", SK.K), r"\x.\x.\y. x", "procedure main(x, x, y):\n    return x"),
    (L.App(L.Lam("x", L.Var("x")), SK.I), r"(\x. x) (\x. x)", "procedure main():\n    return (lambda x: x)(lambda x: x)"),
], ids=["combinator applied under a binder", "combinator as a lambda body", "combinator as an argument"])
def test_emit_prints_a_combinator_as_its_lambda(term, lambda_text, pseudocode):
    # a combinator is parenthesised as a lambda is, continues the binders
    # of the body it ends, and leads the procedure's parameters
    assert CP.emit_target(term, "lambda") == lambda_text == _decoding_path(L.Program((), term), "lambda")
    assert CP.emit_target(term, "pseudocode") == pseudocode == _decoding_path(L.Program((), term), "pseudocode")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_emit_matches_the_decoding_path(seed, with_def):
    # terms mixing lambdas and combinators in every position
    rng = random.Random(seed)
    prog = L.Program.of_items([("f", gen_mixed_term(rng))] * with_def + [(None, gen_mixed_term(rng))])
    for target in ("lambda", "pseudocode"):
        assert CP._emit_program(prog, target) == _decoding_path(prog, target)
    assert CP.emit_target(prog.main, "lambda") == L.pretty_print(SK.ski_decode(prog.main))


def test_emitted_programs_match_the_decoding_path():
    # what the pipeline emits: every compiled corpus and higher-order program
    paths = [*sorted(CORPUS_DIR.glob("*.lam")), *sorted(HIGHER_ORDER_DIR.glob("*.lam"))]
    for path in paths:
        result = CP.run_pipeline(path.read_text(encoding="utf-8"))
        assert result.lambda_text == _decoding_path(result.plan.encoded, "lambda"), path.name
        assert result.pseudocode_text == _decoding_path(result.plan.encoded, "pseudocode"), path.name


# --- corpus -------------------------------------------------------------------------


def test_corpus_two_identical_files(tmp_path):
    src = "inc := \\x. #add x 1;\ninc 1"
    (tmp_path / "a.lam").write_text(src)
    (tmp_path / "b.lam").write_text(src)
    report = CP.run_corpus(tmp_path)
    a, b = report.reports
    da = a.to_dict()
    db = b.to_dict()
    del da["timings"], db["timings"]
    da["program_id"] = db["program_id"] = "x"
    assert da == db


def test_corpus_report_carries_each_program_timings(tmp_path):
    (tmp_path / "a.lam").write_text("inc := \\x. #add x 1;\ninc 1")
    (tmp_path / "b.lam").write_text(r"\x. x")
    programs = CP.run_corpus(tmp_path).to_dict()["programs"]
    assert [p["program_id"] for p in programs] == ["a", "b"]
    for program in programs:
        assert set(program["timings"]) == {"parse_s", "infer_s", "compress_s", "emit_s", "metrics_s"}


def test_corpus_singleton_aggregates(tmp_path):
    (tmp_path / "only.lam").write_text(r"\x. x")
    report = CP.run_corpus(tmp_path)
    only = report.reports[0]
    assert report.mean_cr == float(only.cr)
    assert report.median_cr == float(only.cr)
    assert report.equivalence_pass_rate == 1.0


def test_corpus_empty_directory_is_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        CP.run_corpus(tmp_path)


def test_corpus_mean_cr_exact(tmp_path):
    (tmp_path / "a.lam").write_text(r"\x. x")
    (tmp_path / "b.lam").write_text(r"\x.\y. x")
    report = CP.run_corpus(tmp_path)
    crs = [r.cr for r in report.reports]
    assert report.mean_cr == float(sum(crs, Fraction(0)) / len(crs))


def test_corpus_records_per_file_errors(tmp_path):
    (tmp_path / "good.lam").write_text(r"\x. x")
    (tmp_path / "bad.lam").write_text(r"\x. (x")
    report = CP.run_corpus(tmp_path)
    assert len(report.reports) == 1
    assert len(report.errors) == 1
    assert report.errors[0][0] == "bad"


def test_bundled_corpus_all_equal(corpus_dir):
    report = CP.run_corpus(corpus_dir)
    assert not report.errors
    assert len(report.reports) == 20
    assert report.equivalence_pass_rate == 1.0


# --- CLI ---------------------------------------------------------------------------


def test_cli_compress_writes_report(tmp_path, capsys):
    src_file = tmp_path / "prog.lam"
    src_file.write_text("add2 := \\x. #add x 2;\nadd2 5")
    report_file = tmp_path / "report.json"
    code = CP.main(
        ["compress", str(src_file), "--emit", "gael,lambda,pseudo", "--report", str(report_file)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "add2 :=" in out
    assert "procedure" in out
    doc = json.loads(report_file.read_text())
    assert doc["equivalence"] == "equal"
    assert doc["schema_version"] == 1


def test_cli_compress_malformed_input_exit_1(tmp_path, capsys):
    src_file = tmp_path / "bad.lam"
    src_file.write_text("\\x. (x")
    assert CP.main(["compress", str(src_file)]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_main_definition_with_a_main_expression_exit_1(tmp_path, capsys):
    # both items would be labelled "main" in map_types and the pseudocode
    src_file = tmp_path / "prog.lam"
    src_file.write_text("main := \\x. #add x 1;\n#add (main 2) 1")
    assert CP.main(["compress", str(src_file)]) == 1
    message = "1:1: definition 'main' clashes with the main expression"
    assert capsys.readouterr() == ("", f"skic: error: {message}\n")
    src_file.write_text("main := \\x. #add x 1;")
    assert CP.main(["compress", str(src_file)]) == 0


def test_cli_deep_nesting_is_an_input_error(tmp_path, capsys):
    # 3,000 nested parentheses exceed the recursive-descent parser's depth;
    # a 3,000-argument application parses but is too deep for later passes,
    # and so is the 3,125-deep normal form of the numeral 5^5
    (tmp_path / "deep.lam").write_text("(" * 3000 + "1" + ")" * 3000)
    (tmp_path / "deep.gael").write_text("(" * 3000 + "I" + ")" * 3000)
    (tmp_path / "wide.lam").write_text("f := \\x. x;\n#add" + " 1" * 3000)
    (tmp_path / "power.lam").write_text("(\\n. n n) (\\f. \\x. f (f (f (f (f x)))))")
    cases = (("compress", "deep.lam"), ("explain", "deep.gael"), ("compress", "wide.lam"),
             ("compress", "power.lam"))
    for command, name in cases:
        assert CP.main([command, str(tmp_path / name)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("skic: error: ") and "expression nested too deeply" in err
        assert "Traceback" not in err
    (tmp_path / "deep.lam").unlink()
    report = CP.run_corpus(tmp_path)
    message = "LambdaError: expression nested too deeply for the compiler's passes"
    assert report.errors == (("power", message), ("wide", message))


def test_run_corpus_propagates_a_pass_bug(tmp_path, monkeypatch):
    # only the documented input errors become corpus rows; a programming
    # error in a pass is a traceback, not a recorded program error
    (tmp_path / "one.lam").write_text("#add 1 2")

    def broken(*args, **kwargs):
        raise TypeError("a bug in a pass")

    monkeypatch.setattr(CP.mdl_opt, "compress_program", broken)
    with pytest.raises(TypeError, match="a bug in a pass"):
        CP.run_corpus(tmp_path)


DEEP_NUMERAL = "f := \\g. (\\n. n n) (\\h.\\x. h (h (h (h (h x))))) g 1;\nf"
# the options a case adds to `skic compress`, by (source, verdict)
_EDGE_CASE_OPTIONS = {(DEEP_NUMERAL, "equal"): ["--fuel", "1000000"]}


@pytest.mark.parametrize("source, verdict", [
    ("#add 9223372036854775807 1", "equal"),
    ("(\\x. #add x 1) (\\z. z)", "equal"),
    ("(\\z. \\y. #add (y (#add 9223372036854775807 2)) (#add 9223372036854775807 1)) 0", "unknown"),
    ("(\\x. x x) (\\x. x x)", "unknown"),
    (DEEP_NUMERAL, "unknown"),
    (DEEP_NUMERAL, "equal"),
])
def test_cli_compress_probe_edge_cases(tmp_path, capsys, source, verdict):
    # a probe that overflows on both sides with one value, and a stuck #add
    # the encoding specialises to #addZ, compare equal; under a binder the
    # source overflows on MAX+1 first and its encoding on MAX+2, undecided;
    # omega runs out of fuel on both sides; the Church numeral 5^5 applied to an
    # integer g keys the source's 3,125-deep stuck `g (g (... 1))` without
    # recursion, and its encoding runs out of fuel.  At --fuel 1000000 both
    # sides key it, and the two 3,125-deep keys compare equal without
    # recursion.  `unknown` exits 0 with a warning
    (tmp_path / "prog.lam").write_text(source)
    report_file = tmp_path / "report.json"
    options = _EDGE_CASE_OPTIONS.get((source, verdict), [])
    assert CP.main(["compress", str(tmp_path / "prog.lam"), "--report", str(report_file), *options]) == 0
    assert json.loads(report_file.read_text())["equivalence"] == verdict
    warnings = ["skic: warning: equivalence unknown for prog: "
                "some probe ran out of fuel or was undecided"]
    assert capsys.readouterr().err.splitlines() == (warnings if verdict == "unknown" else [])


C_ERROR = "density bound constant must be finite and nonnegative"


@pytest.mark.parametrize("argv, message", [
    (["corpus", "{dir}", "--fuel", "-1"], "fuel must be nonnegative"),
    (["corpus", "{dir}", "--probes", "-1"], "probe tuple count must be positive"),
    (["corpus", "{dir}", "--c", "-1"], C_ERROR),
    (["compress", "{dir}/prog.lam", "--fuel", "-1"], "fuel must be nonnegative"),
    (["compress", "{dir}/prog.lam", "--probes", "-1"], "probe tuple count must be positive"),
    (["compress", "{dir}/prog.lam", "--c", "-1"], C_ERROR),
    (["compress", "{dir}/prog.lam", "--emit", "gael,bogus"], "unknown emit target 'bogus'"),
    (["corpus", "{dir}", "--c", "nan"], C_ERROR),
    (["corpus", "{dir}", "--c", "inf"], C_ERROR),
    (["compress", "{dir}/prog.lam", "--c", "nan"], C_ERROR),
    (["compress", "{dir}/prog.lam", "--c", "inf"], C_ERROR),
    (["density", "{dir}/prog.lam", "--c", "nan"], "bound constant must be finite and nonnegative"),
    (["density", "{dir}/prog.lam", "--c", "inf"], "bound constant must be finite and nonnegative"),
    (["compress", "{dir}/prog.lam", "--probes", "0"], "probe tuple count must be positive"),
    (["corpus", "{dir}", "--probes", "0"], "probe tuple count must be positive"),
    (["compress", "{dir}/prog.lam", "--rules", "eta,eta"], "rule_sets must not repeat"),
    (["corpus", "{dir}", "--rules", "eta, bogus"], "unknown rule set 'bogus' (expected naive|i|eta)"),
])
def test_cli_invalid_values_exit_1_before_compiling(tmp_path, capsys, argv, message):
    (tmp_path / "prog.lam").write_text("inc := \\x. #add x 1;\ninc 3")
    report_file = tmp_path / "report.json"
    argv = [arg.format(dir=tmp_path) for arg in argv]
    if argv[0] != "density":  # density has no --report
        argv += ["--report", str(report_file)]
    assert CP.main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"skic: error: {message}\n")
    assert not report_file.exists()


# the option census: each MdlConfig field, its one flag and a value other than its default
_CONFIG_FLAGS = {
    "lambda_weight": (["--lambda", "0.5"], 0.5),
    "beam_width": (["--beam", "3"], 3),
    "rule_sets": (["--rules", "eta"], (SK.RuleSet.ETA_OPTIMIZED,)),
    "fuel": (["--fuel", "7"], 7),
    "max_probes": (["--probes", "5"], 5),
    "extraction_enabled": (["--no-extract"], False),
}


@pytest.mark.parametrize("command", ["compress", "corpus"])
def test_cli_defaults_are_mdl_config_defaults(command):
    parser = CP._build_parser()
    args = parser.parse_args([command, "x.lam"])
    assert CP._config_from_args(args) == MdlConfig()
    # a new knob, in MdlConfig, the probe set or on the command line, needs an edit here
    assert {f.name for f in dataclasses.fields(MdlConfig)} == _CONFIG_FLAGS.keys()
    assert list(inspect.signature(SK.probe_tuples).parameters) == ["arity", "limit"]
    for field, (flag, value) in _CONFIG_FLAGS.items():
        args = parser.parse_args([command, "x.lam", *flag])
        assert CP._config_from_args(args) == dataclasses.replace(MdlConfig(), **{field: value}), flag
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for a in subparsers.choices[command]._actions for s in a.option_strings}
    other = {"-h", "--help", "--report", "--c"} | ({"--emit"} if command == "compress" else set())
    assert options == {flag[0] for flag, _ in _CONFIG_FLAGS.values()} | other


def test_cli_compress_missing_file_exit_1(tmp_path, capsys):
    assert CP.main(["compress", str(tmp_path / "nope.lam")]) == 1


@pytest.mark.parametrize("command", ["compress", "corpus"])
def test_cli_unwritable_report_is_an_input_error(tmp_path, capsys, command):
    (tmp_path / "prog.lam").write_text("inc := \\x. #add x 1;\ninc 3")
    report_file = tmp_path / "missing" / "r.json"
    target = tmp_path / "prog.lam" if command == "compress" else tmp_path
    assert CP.main([command, str(target), "--report", str(report_file)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("skic: error: ") and str(report_file) in err


@pytest.mark.parametrize("command", ["compress", "explain"])
def test_cli_non_utf8_or_empty_program_is_an_input_error(tmp_path, capsys, command):
    empty = "program has no definitions and no main expression"
    cases = {
        b"\xff\xfe": "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        b"": empty,
        b"-- only a comment\n": empty,
    }
    for data, message in cases.items():
        (tmp_path / "prog.txt").write_bytes(data)
        assert CP.main([command, str(tmp_path / "prog.txt")]) == 1
        assert capsys.readouterr() == ("", f"skic: error: {message}\n")


def test_cli_corpus_csv_and_json(tmp_path, capsys):
    (tmp_path / "one.lam").write_text(r"\x. x")
    (tmp_path / "two.lam").write_text("inc := \\x. #add x 1;\ninc 3")
    report_file = tmp_path / "corpus.json"
    code = CP.main(["corpus", str(tmp_path), "--report", str(report_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("program_id,")
    assert report_file.exists()
    assert report_file.with_suffix(".csv").exists()
    doc = json.loads(report_file.read_text())
    assert doc["aggregates"]["count"] == 2


def test_cli_corpus_csv_quotes_program_ids(tmp_path, capsys):
    ids = ["a,b", 'say "hi"', "plain"]
    for pid in ids:
        (tmp_path / f"{pid}.lam").write_text(r"\x. x")
    report_file = tmp_path / "out" / "corpus.json"
    report_file.parent.mkdir()
    assert CP.main(["corpus", str(tmp_path), "--report", str(report_file)]) == 0
    out = capsys.readouterr().out
    assert report_file.with_suffix(".csv").read_text() == out
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(row) for row in rows] == [8] * 4
    assert sorted(row[0] for row in rows[1:]) == sorted(ids)
    # an ordinary id is written as before: unquoted
    assert "plain,4,1,0.750000,equal,0.990000,1.400000,3.000000" in out.splitlines()


def test_cli_corpus_csv_report_path_exits_1_before_compiling(tmp_path, capsys, monkeypatch):
    # the CSV summary goes to the report path with a .csv suffix, which
    # would overwrite a JSON report written to a .csv path
    (tmp_path / "one.lam").write_text(r"\x. x")
    monkeypatch.setattr(CP, "run_corpus", None)  # compiling would raise TypeError
    report_file = tmp_path / "r.csv"
    assert CP.main(["corpus", str(tmp_path), "--report", str(report_file)]) == 1
    out, err = capsys.readouterr()
    message = "corpus --report path must not end in .csv: the CSV summary is written next to it"
    assert (out, err) == ("", f"skic: error: {message}\n")
    assert not report_file.exists()


def test_cli_explain_round_trip(tmp_path, capsys):
    gael_file = tmp_path / "prog.gael"
    gael_file.write_text("q0 := S K K;\nq0 5")
    assert CP.main(["explain", str(gael_file)]) == 0
    out = capsys.readouterr().out
    assert "-- q0" in out
    assert "the identity function" not in out  # S K K explains as S-spine, not I
    assert "applied to the integer 5" in out


def test_cli_density(tmp_path, capsys):
    f = tmp_path / "data.bin"
    f.write_bytes(b"a" * 4096)
    assert CP.main(["density", str(f)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k_approx_bytes"] == 22
    assert doc["rho"] <= 0.05


def test_cli_exit_3_on_equivalence_violation(tmp_path, monkeypatch, capsys):
    # no honest compression produces `different`; force the verdict to
    # exercise the exit-status contract
    src_file = tmp_path / "prog.lam"
    src_file.write_text(r"\x. x")
    monkeypatch.setattr(CP, "_verify_equivalence", lambda *a, **k: ("different", 1.0))
    assert CP.main(["compress", str(src_file)]) == 3
    assert "differs" in capsys.readouterr().err
    assert CP.main(["corpus", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "skic: error: compressed program differs from source for prog\n"


def test_cli_exit_3_on_a_corrupted_extraction(tmp_path, monkeypatch, capsys):
    # verification closes and probes the emitted program itself, so a
    # compression bug after the search still shows as `different`
    src_file = tmp_path / "prog.lam"
    src_file.write_text("inc := \\x. #add x 1;\ninc 2")
    extract = MD._extract_with_trace

    def corrupted(prog, tokens):
        prog, moves, tokens = extract(prog, tokens)
        (name, _), *rest = prog.defs
        return L.Program(((name, L.App(SK.K, L.IntLit(0))), *rest), prog.main), moves, tokens

    monkeypatch.setattr(MD, "_extract_with_trace", corrupted)
    report_file = tmp_path / "r.json"
    assert CP.main(["compress", str(src_file), "--report", str(report_file)]) == 3
    assert "differs from source for prog" in capsys.readouterr().err
    assert json.loads(report_file.read_text())["equivalence"] == "different"


def test_corpus_probes_each_emitted_program_once(corpus_dir, monkeypatch):
    # the search's probes plus one verification pass per emitted program,
    # which the search does not probe again after the beam
    calls = [0]
    comparison_forms = SK.comparison_forms

    def counted(side, tuples, fuel):
        calls[0] += len(tuples)
        return comparison_forms(side, tuples, fuel)

    monkeypatch.setattr(SK, "comparison_forms", counted)
    CP.run_corpus(corpus_dir)
    assert calls[0] <= 2626, calls[0]


def test_corpus_byte_identical_reports(corpus_dir):
    import copy

    def strip(doc):
        doc = copy.deepcopy(doc)
        for program in doc["programs"]:
            program.pop("timings", None)
        return json.dumps(doc, sort_keys=True)

    a = CP.run_corpus(corpus_dir).to_dict()
    b = CP.run_corpus(corpus_dir).to_dict()
    assert strip(a) == strip(b)


def test_cli_rules_flag(tmp_path, capsys):
    src_file = tmp_path / "prog.lam"
    src_file.write_text(r"\x. x")
    assert CP.main(["compress", str(src_file), "--rules", "naive"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "S K K"


def test_cli_bad_rules_flag(tmp_path, capsys):
    src_file = tmp_path / "prog.lam"
    src_file.write_text(r"\x. x")
    assert CP.main(["compress", str(src_file), "--rules", "bogus"]) == 1


def test_config_from_probes_flag(tmp_path):
    cfg = MdlConfig(max_probes=10)
    assert len(cfg.probe_tuples(2)) == 10


_SOURCE_TOKENS = ("\\", ".", "(", ")", ";", ":=", " ", "\n", "-- c\n", "x", "y", "f", "S", "K",
                  "I", "0", "-2", "9223372036854775807", "true", "#add", "#eq", "#if", "#nope")
_fuzz_inputs = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=40).map(str.encode),
    st.lists(st.sampled_from(_SOURCE_TOKENS), max_size=24).map(lambda ts: "".join(ts).encode()),
    st.binary(max_size=40),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzz_inputs)
def test_cli_fuzz_exits_with_a_documented_code(tmp_path, data):
    path = tmp_path / "fuzz.lam"
    path.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert CP.main(["compress", str(path), "--fuel", "2000"]) in (0, 1, 3)
        assert CP.main(["corpus", str(tmp_path), "--fuel", "2000"]) in (0, 1, 3)
        assert CP.main(["explain", str(path)]) in (0, 1)
        assert CP.main(["density", str(path)]) in (0, 1)


# --- entry points ------------------------------------------------------------------


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports skic from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(CP.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


def test_import_skic_leaves_numpy_unloaded():
    # the package root loads only what `parse_gael_program` needs
    code = ("import sys, skic; print([m in sys.modules for m in ('numpy', 'skic.cli_pipeline', 'argparse')],"
            " callable(skic.parse_gael_program))")
    done = _python("-c", code)
    assert (done.returncode, done.stdout) == (0, "[False, False, False] True\n")


def test_python_m_skic_runs_the_cli(tmp_path):
    (tmp_path / "prog.lam").write_text(r"\x. x")
    done = _python("-m", "skic", "compress", str(tmp_path / "prog.lam"))
    assert (done.returncode, done.stdout, done.stderr) == (0, "I\n", "")
    done = _python("-m", "skic", "explain", str(tmp_path / "nope.gael"))
    assert done.returncode == 1 and done.stderr.startswith("skic: error: ")
