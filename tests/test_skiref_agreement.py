"""A second opinion from outside skic: `perfbench/skiref.py`.

Verification reduces both sides with skic's one reducer, so a fault both
sides share (a delta rule, the overflow range) still reads `equal`
there.  skiref is a separate GAEL reader and lazy graph reducer with its
own delta rules.  It evaluates each program's emitted GAEL and its
source bracket-abstracted under the naive rules, on every probe tuple
where skic's reducer gives the source main a literal or an overflow.
"""

import importlib.util
import random
from pathlib import Path

from skic import cli_pipeline as CP
from skic import lambda_ir as L
from skic import ski_core as SK
from skic.mdl_opt import MdlConfig
from skic.ski_core import RuleSet

from conftest import corpus_sources
from test_mdl_opt import gen_chain

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_skiref", ROOT / "perfbench" / "skiref.py")
skiref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(skiref)


def naive_gael(prog: L.Program) -> str:
    """Each source item bracket-abstracted under the naive rules alone."""
    names = [name for name, _ in prog.defs]
    return SK.gael_print_program(L.Program.of_items([
        (name, SK.bracket_abstract(body, RuleSet.NAIVE, frozenset(names[:i])))
        for i, (name, body) in enumerate(prog.items())
    ]))


def skiref_outcome(gael_text: str, args: tuple[int, ...]) -> object:
    """skiref's value for the program's main applied to `args`, or the
    failure it raised."""
    defs, main = skiref.parse(gael_text)
    try:
        return skiref.Evaluator(defs).run(main, args)
    except skiref.EvalFailure as exc:
        return exc


def disagreements(source: str) -> tuple[list[str], int, int]:
    """(each tuple where skiref departs from skic's key for the source main,
    the tuples checked, the overflows among them)."""
    cfg = MdlConfig()
    prog = L.parse_program(source)
    texts = {"gael": CP.run_pipeline(source, cfg).gael_text, "naive": naive_gael(prog)}
    main = SK.inline_ski_defs(prog)[None]
    probes = cfg.probes_for_arity(L.leading_lambda_count(main))
    problems, checked, overflows = [], 0, 0
    for args, key in SK.probe_keys(main, probes, cfg.fuel):
        overflow = isinstance(key, L.EvalOverflowError)
        if not (overflow or isinstance(key, (L.IntLit, L.BoolLit))):
            continue
        checked += 1
        overflows += overflow
        for side, text in texts.items():
            got = skiref_outcome(text, args)
            if overflow:
                ok = isinstance(got, skiref.EvalFailure) and "overflows" in str(got)
            else:
                ok = type(got) is type(key.value) and got == key.value
            if not ok:
                problems.append(f"{side} {args}: skiref {got!r}, skic {key!r}")
    return problems, checked, overflows


def agreement_sources() -> list[str]:
    rng = random.Random(5)
    chains = [
        gen_chain(rng, rng.randint(1, 5), rng.choice((("1", "2"), ("1", str(L.INT64_MAX)))))
        for _ in range(100)
    ]
    return [source for _, source in corpus_sources()] + chains


def test_skiref_agrees_with_skic_on_corpus_and_chains():
    programs = tuples = overflows = 0
    problems = []
    for source in agreement_sources():
        found, checked, overflowed = disagreements(source)
        problems += [f"{source!r}: {p}" for p in found]
        programs += checked > 0
        tuples += checked
        overflows += overflowed
    assert problems == []
    # the sample must reach literal results and overflows on many programs
    assert programs >= 100 and tuples >= 500 and overflows >= 10
