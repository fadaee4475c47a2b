"""MDL-driven compression search over combinator encodings.

The scalarized objective is

    objective = w * gael_tokens(encoding) + (1 - w) * distance(source, encoding)

with w in [0,1] and distance in [0,1] (fraction of disagreeing probe
tuples, fuel-exhausted probes counting 0.5).  The search runs beam
search over two kinds of decisions: the bracket-abstraction rule set
for each program item, then greedy common-subterm extraction moves
accepted only when they strictly shrink the GAEL token count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional, Union

from . import lambda_ir, metrics, ski_core
from .lambda_ir import DEFAULT_FUEL, App, Program, Term, Var, term_size
from .ski_core import ProbeConfig, RuleSet, gael_print, gael_print_program

MIN_EXTRACT_NODES = 3

ALL_RULE_SETS = (RuleSet.NAIVE, RuleSet.WITH_I, RuleSet.ETA_OPTIMIZED)


@dataclass(frozen=True)
class MdlConfig:
    lambda_weight: float = 0.99
    beam_width: int = 8
    probe_config: ProbeConfig = ProbeConfig(arity=0)
    rule_sets: tuple[RuleSet, ...] = ALL_RULE_SETS
    extraction_enabled: bool = True
    fuel: int = DEFAULT_FUEL
    length_unit: str = "tokens"  # or "bytes" of the GAEL text

    def __post_init__(self):
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ValueError("lambda_weight must lie in [0, 1]")
        if self.beam_width < 1:
            raise ValueError("beam_width must be at least 1")
        if not self.rule_sets:
            raise ValueError("rule_sets must be nonempty")
        if self.length_unit not in ("tokens", "bytes"):
            raise ValueError("length_unit must be 'tokens' or 'bytes'")

    def probes_for_arity(self, arity: int) -> ProbeConfig:
        return replace(self.probe_config, arity=arity)

    def gael_length(self, text: str) -> int:
        if self.length_unit == "bytes":
            return len(text.encode("utf-8"))
        return metrics.token_count(text, "gael")


@dataclass(frozen=True)
class CompressionPlan:
    """Chosen encoding with its objective decomposition and search trace.

    token_length is measured in the config's length unit (GAEL tokens by
    default); trace pairs each decision with the objective after it.
    """

    encoded: Union[Term, Program]
    objective: float
    token_length: int
    distance: float
    trace: tuple[tuple[str, float], ...]

    def encoded_program(self) -> Program:
        if isinstance(self.encoded, Program):
            return self.encoded
        return Program(defs=(), main=self.encoded)


def semantic_distance(
    p: Term, s: Term, probes: ProbeConfig, fuel: int = DEFAULT_FUEL
) -> float:
    """Fraction of probe tuples where reduced outputs differ.

    Fuel-exhausted probes contribute 0.5; an empty probe set yields 0
    (vacuous agreement).
    """
    tuples = probes.tuples()
    if not tuples:
        return 0.0
    total = 0.0
    for tup in tuples:
        try:
            na = ski_core.comparison_form(p, tup, fuel)
            nb = ski_core.comparison_form(s, tup, fuel)
        except lambda_ir.FuelExhausted:
            total += 0.5
            continue
        if not lambda_ir.alpha_equivalent(na, nb):
            total += 1.0
    return total / len(tuples)


def mdl_objective(s: Term, p: Term, cfg: MdlConfig) -> float:
    """Scalarized objective for a single encoded term.

    Length is measured in the configured unit (GAEL tokens by default,
    GAEL text bytes as the alternate).
    """
    length = cfg.gael_length(gael_print(s))
    probes = cfg.probes_for_arity(lambda_ir.leading_lambda_count(p))
    dist = semantic_distance(p, s, probes, cfg.fuel)
    return cfg.lambda_weight * length + (1.0 - cfg.lambda_weight) * dist


# --- program-level search -------------------------------------------------


@dataclass(frozen=True)
class _Item:
    """One compilable unit: a definition body or the main expression."""

    name: Optional[str]  # None for main
    source: Term  # raw body (may reference earlier definition names)
    inlined: Term  # closed form with earlier definitions substituted
    constants: frozenset[str]  # definition names visible to this item

    @property
    def arity(self) -> int:
        return lambda_ir.leading_lambda_count(self.inlined)


def _items_of(prog: Program) -> list[_Item]:
    inlined = dict(lambda_ir.inline_defs(prog))
    items: list[_Item] = []
    seen: list[str] = []
    for name, body in prog.defs:
        items.append(
            _Item(name=name, source=body, inlined=inlined[name], constants=frozenset(seen))
        )
        seen.append(name)
    if prog.main is not None:
        main_inlined = lambda_ir.inline_main(prog)
        items.append(
            _Item(name=None, source=prog.main, inlined=main_inlined, constants=frozenset(seen))
        )
    return items


def _encode_program(items: list[_Item], rules: tuple[RuleSet, ...]) -> Program:
    defs: list[tuple[str, Term]] = []
    main: Optional[Term] = None
    for item, rs in zip(items, rules):
        encoded = ski_core.bracket_abstract(item.source, rs, constants=item.constants)
        if item.name is None:
            main = encoded
        else:
            defs.append((item.name, encoded))
    return Program(defs=tuple(defs), main=main)


def _program_length(prog: Program, cfg: MdlConfig) -> int:
    return cfg.gael_length(gael_print_program(prog))


class _DistanceCache:
    """Per-item distances keyed by the rule prefix that can affect them."""

    def __init__(self, items: list[_Item], cfg: MdlConfig):
        self.items = items
        self.cfg = cfg
        self.cache: dict[tuple[int, tuple[RuleSet, ...]], float] = {}

    def item_distance(self, encoded: Program, idx: int, rules: tuple[RuleSet, ...]) -> float:
        key = (idx, rules[: idx + 1])
        if key not in self.cache:
            item = self.items[idx]
            ski_inlined = _inline_item(encoded, item.name)
            probes = self.cfg.probes_for_arity(item.arity)
            self.cache[key] = semantic_distance(
                item.inlined, ski_inlined, probes, self.cfg.fuel
            )
        return self.cache[key]

    def program_distance(self, encoded: Program, rules: tuple[RuleSet, ...]) -> float:
        if not self.items:
            return 0.0
        return max(
            self.item_distance(encoded, idx, rules) for idx in range(len(self.items))
        )


def _inline_item(prog: Program, name: Optional[str]) -> Term:
    resolved = dict(ski_core.inline_ski_defs(prog))
    if name is None:
        assert prog.main is not None
        body = prog.main
        for dep, val in reversed(list(resolved.items())):
            body = ski_core.substitute_free(body, dep, val)
        return body
    return resolved[name]


def program_distance(source: Program, encoded: Program, cfg: MdlConfig) -> float:
    """Max per-item distance between a source program and its encoding."""
    items = _items_of(source)
    if not items:
        return 0.0
    out = []
    for item in items:
        ski_inlined = _inline_item(encoded, item.name)
        probes = cfg.probes_for_arity(item.arity)
        out.append(semantic_distance(item.inlined, ski_inlined, probes, cfg.fuel))
    return max(out)


def compress_program(prog: Program, cfg: MdlConfig = MdlConfig()) -> CompressionPlan:
    """Beam search over per-item rule sets, then extraction moves."""
    items = _items_of(prog)
    if not items:
        raise ValueError("program has no definitions and no main expression")
    cache = _DistanceCache(items, cfg)
    baseline = cfg.rule_sets[0]
    n = len(items)

    def complete(rules: tuple[RuleSet, ...]) -> tuple[RuleSet, ...]:
        return rules + (baseline,) * (n - len(rules))

    def score(rules: tuple[RuleSet, ...]) -> tuple[float, int, Program, float]:
        full = complete(rules)
        encoded = _encode_program(items, full)
        tokens = _program_length(encoded, cfg)
        dist = cache.program_distance(encoded, full)
        objective = cfg.lambda_weight * tokens + (1.0 - cfg.lambda_weight) * dist
        return objective, tokens, encoded, dist

    beam: list[tuple[RuleSet, ...]] = [()]
    for _ in range(n):
        candidates = [state + (rs,) for state in beam for rs in cfg.rule_sets]
        scored = []
        for state in candidates:
            objective, tokens, encoded, dist = score(state)
            scored.append((objective, tokens, gael_print_program(encoded), state))
        scored.sort(key=lambda s: (s[0], s[1], s[2]))
        beam = [s[3] for s in scored[: cfg.beam_width]]

    best_rules = beam[0]
    objective, tokens, encoded, dist = score(best_rules)

    trace: list[tuple[str, float]] = []
    for i in range(n):
        prefix_obj, _, _, _ = score(best_rules[: i + 1])
        label = items[i].name if items[i].name is not None else "main"
        trace.append((f"rules[{label}]={best_rules[i].value}", prefix_obj))

    if cfg.extraction_enabled:
        extracted, moves = _extract_with_trace(encoded, cfg)
        if moves:
            encoded = extracted
            tokens = _program_length(encoded, cfg)
            dist = program_distance(prog, encoded, cfg)
            objective = cfg.lambda_weight * tokens + (1.0 - cfg.lambda_weight) * dist
            for name in moves:
                trace.append((f"extract[{name}]", objective))

    result: Union[Term, Program] = encoded
    if not encoded.defs and encoded.main is not None and not prog.defs:
        result = encoded.main
    return CompressionPlan(
        encoded=result,
        objective=objective,
        token_length=tokens,
        distance=dist,
        trace=tuple(trace),
    )


def compress_term(p: Term, cfg: MdlConfig = MdlConfig()) -> CompressionPlan:
    """Compress a single closed term (a one-item program)."""
    return compress_program(Program(defs=(), main=p), cfg)


# --- common-subterm extraction ---------------------------------------------


def _collect_counts(prog: Program) -> dict[Term, int]:
    counts: dict[Term, int] = {}

    def visit(t: Term) -> None:
        if term_size(t) >= MIN_EXTRACT_NODES:
            counts[t] = counts.get(t, 0) + 1
        if isinstance(t, App):
            visit(t.fun)
            visit(t.arg)

    for _, body in prog.defs:
        visit(body)
    if prog.main is not None:
        visit(prog.main)
    return counts


def _replace_subterm(t: Term, target: Term, name: str) -> Term:
    if t == target:
        return Var(name)
    if isinstance(t, App):
        return App(
            _replace_subterm(t.fun, target, name), _replace_subterm(t.arg, target, name)
        )
    return t


def _used_names(prog: Program) -> set[str]:
    names = {name for name, _ in prog.defs}
    for _, body in prog.defs:
        names |= lambda_ir.free_vars(body)
    if prog.main is not None:
        names |= lambda_ir.free_vars(prog.main)
    return names


def _fresh_def_name(prog: Program) -> str:
    used = _used_names(prog)
    for i in itertools.count():
        candidate = f"q{i}"
        if candidate not in used:
            return candidate


def _apply_extraction(prog: Program, target: Term, name: str) -> Program:
    new_defs: list[tuple[str, Term]] = []
    inserted = False
    for def_name, body in prog.defs:
        replaced = _replace_subterm(body, target, name)
        if replaced != body and not inserted:
            new_defs.append((name, target))
            inserted = True
        new_defs.append((def_name, replaced))
    new_main = None
    if prog.main is not None:
        new_main = _replace_subterm(prog.main, target, name)
        if new_main != prog.main and not inserted:
            new_defs.append((name, target))
            inserted = True
    if not inserted:  # target occurs nowhere; caller guarantees otherwise
        return prog
    return Program(defs=tuple(new_defs), main=new_main)


def _extract_with_trace(prog: Program, cfg: MdlConfig) -> tuple[Program, list[str]]:
    moves: list[str] = []
    while True:
        tokens_now = _program_length(prog, cfg)
        counts = _collect_counts(prog)
        candidates = [
            (term, count) for term, count in counts.items() if count >= 2
        ]
        candidates.sort(key=lambda tc: (-tc[1], -term_size(tc[0]), gael_print(tc[0])))
        applied = False
        for term, _count in candidates:
            name = _fresh_def_name(prog)
            replaced = _apply_extraction(prog, term, name)
            if _program_length(replaced, cfg) < tokens_now:
                prog = replaced
                moves.append(name)
                applied = True
                break
        if not applied:
            return prog, moves


def extract_common_subterms(prog: Program, cfg: MdlConfig = MdlConfig()) -> Program:
    """Extract repeated subterms while each move strictly shrinks tokens."""
    if not cfg.extraction_enabled:
        return prog
    extracted, _ = _extract_with_trace(prog, cfg)
    return extracted
