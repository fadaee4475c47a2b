"""A second opinion from outside skic: `perfbench/skiref.py`.

Verification reduces both sides with skic's one reducer, so a fault both
sides share (a delta rule, the overflow range) still reads `equal`
there.  skiref is a separate GAEL reader and lazy graph reducer with its
own delta rules.  It evaluates each program's emitted GAEL and its
source bracket-abstracted under the naive rules, on every probe tuple
where skic's reducer gives a source item a literal or an overflow: the
main of the corpus, of definition chains and of random closed terms, and
each definition of a sample of those programs.
"""

import importlib.util
import random
from pathlib import Path

from skic import cli_pipeline as CP
from skic import lambda_ir as L
from skic import ski_core as SK
from skic.mdl_opt import MdlConfig
from skic.ski_core import RuleSet

from conftest import corpus_sources, gen_chain, gen_normalizing_term, tuple_keys

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_skiref", ROOT / "perfbench" / "skiref.py")
skiref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(skiref)


def naive_program(prog: L.Program) -> L.Program:
    """Each source item bracket-abstracted under the naive rules alone."""
    names = [name for name, _ in prog.defs]
    return L.Program.of_items([
        (name, SK.bracket_abstract(body, RuleSet.NAIVE, frozenset(names[:i])))
        for i, (name, body) in enumerate(prog.items())
    ])


def gael_naming(prog: L.Program, name) -> str:
    """GAEL text of `prog`'s definitions under a main that names item
    `name`; the program's own main for None."""
    return SK.gael_print_program(prog if name is None else L.Program(prog.defs, L.Var(name)))


def skiref_outcome(gael_text: str, args: tuple[int, ...]) -> object:
    """skiref's value for the program's main applied to `args`, or the
    failure it raised."""
    defs, main = skiref.parse(gael_text)
    try:
        return skiref.Evaluator(defs).run(main, args)
    except skiref.EvalFailure as exc:
        return exc


def disagreements(source: str, definitions: bool = False) -> tuple[list[str], int, int]:
    """(each tuple where skiref departs from skic's key for the source main,
    or with `definitions` for each source definition instead, the tuples
    checked, the overflows among them)."""
    cfg = MdlConfig()
    prog = L.parse_program(source)
    sides = {"gael": CP.run_pipeline(source, cfg).plan.encoded, "naive": naive_program(prog)}
    problems, checked, overflows = [], 0, 0
    for name, item in SK.inline_ski_defs(prog).items():
        if (name is not None) != definitions:
            continue
        texts = {side: gael_naming(encoded, name) for side, encoded in sides.items()}
        probes = cfg.probe_tuples(L.leading_lambda_count(item))
        for args, key in zip(probes, tuple_keys(SK.probe_keys(item, probes, cfg.fuel))):
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
                    problems.append(f"{name or 'main'} {side} {args}: skiref {got!r}, skic {key!r}")
    return problems, checked, overflows


def agreement_sources() -> list[str]:
    rng = random.Random(5)
    chains = [
        gen_chain(rng, rng.randint(1, 5), rng.choice((("1", "2"), ("1", str(L.INT64_MAX)))))
        for _ in range(100)
    ]
    return [source for _, source in corpus_sources()] + chains


def agreement_totals(sources: list[str], definitions: bool = False) -> tuple[list[str], int, int, int]:
    """(every disagreement, the programs with a tuple checked, the tuples,
    the overflows) over `sources`."""
    programs = tuples = overflows = 0
    problems = []
    for source in sources:
        found, checked, overflowed = disagreements(source, definitions)
        problems += [f"{source!r}: {p}" for p in found]
        programs += checked > 0
        tuples += checked
        overflows += overflowed
    return problems, programs, tuples, overflows


def test_skiref_agrees_with_skic_on_corpus_and_chains():
    problems, programs, tuples, overflows = agreement_totals(agreement_sources())
    assert problems == []
    # the sample must reach literal results and overflows on many programs
    assert programs >= 100 and tuples >= 500 and overflows >= 10


def test_skiref_agrees_with_skic_on_every_definition():
    # every third program keeps the file fast; its definitions still reach
    # many literal results and overflows
    problems, _, tuples, overflows = agreement_totals(agreement_sources()[::3], definitions=True)
    assert problems == []
    assert tuples >= 1000 and overflows >= 100


def test_skiref_agrees_with_skic_on_random_closed_terms():
    rng = random.Random(1)
    sources = [L.pretty_print(gen_normalizing_term(rng)) for _ in range(175)]
    problems, programs, tuples, _ = agreement_totals(sources)
    assert problems == []
    assert programs >= 40 and tuples >= 1500
