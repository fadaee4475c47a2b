"""MDL-driven compression search over combinator encodings.

The scalarized objective is

    objective = w * gael_tokens(encoding) + (1 - w) * distance(source, encoding)

with w in [0,1] and distance in [0,1] (fraction of disagreeing probe
tuples, undecided probes counting 0.5).  The search makes two kinds of
decisions: the bracket-abstraction rule set for each program item, then
greedy common-subterm extraction moves accepted only when they strictly
shrink the GAEL token count.

One search chooses the rule sets: a beam over each item's choices
(`_Search.choices`) that probes rule prefixes only where its order is
open.  Where one token outweighs any distance gap, each item keeps its
fewest-token rule sets, and where those print one line each nothing is
probed.  Verification probes every item either way.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from . import lambda_ir, ski_core
from .lambda_ir import DEFAULT_FUEL, App, Fuel, Program, Term, Var, pretty_print
from .ski_core import RuleSet, gael_print_program, gael_program_tokens

ALL_RULE_SETS = tuple(RuleSet)


@dataclass(frozen=True)
class MdlConfig:
    lambda_weight: float = 0.99
    beam_width: int = 8
    max_probes: int = 216
    rule_sets: tuple[RuleSet, ...] = ALL_RULE_SETS
    extraction_enabled: bool = True
    fuel: int = DEFAULT_FUEL

    def __post_init__(self):
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ValueError("lambda_weight must lie in [0, 1]")
        if self.beam_width < 1:
            raise ValueError("beam_width must be at least 1")
        if not self.rule_sets:
            raise ValueError("rule_sets must be nonempty")
        if len(set(self.rule_sets)) < len(self.rule_sets):
            raise ValueError("rule_sets must not repeat")
        Fuel(self.fuel)  # each raises the ValueError of its own rule
        self.probe_tuples(0)

    def probe_tuples(self, arity: int) -> list[tuple[int, ...]]:
        return ski_core.probe_tuples(arity, self.max_probes)


@dataclass(frozen=True)
class CompressionPlan:
    """Chosen encoding and its GAEL token count.  Its distance, and so
    its objective, is verification's to measure."""

    encoded: Program
    token_length: int


def semantic_distance(
    p: Term, s: Term, tuples: list[tuple[int, ...]], fuel: int = DEFAULT_FUEL,
    p_keys: Optional[ski_core.ProbeKeys] = None,
) -> float:
    """`ski_core.compare_keys`'s distance: the fraction of probe tuples
    that differ, undecided ones counting 0.5.  `p_keys`, if given, is
    `ski_core.probe_keys(p, tuples, fuel)`, kept by a caller that compares
    `p` with many sides.  Verification's `behavioral_equal` reports the
    same distance with its verdict."""
    if p_keys is None:
        p_keys = ski_core.probe_keys(p, tuples, fuel)
    return ski_core.compare_keys(p_keys, s, fuel).distance


def objective(cfg: MdlConfig, length: int, dist: float) -> float:
    """The scalarized objective of `length` GAEL tokens at distance `dist`."""
    return cfg.lambda_weight * length + (1.0 - cfg.lambda_weight) * dist


def mdl_objective(s: Term, p: Term, cfg: MdlConfig) -> float:
    """Scalarized objective for a single encoded term."""
    tuples = cfg.probe_tuples(lambda_ir.leading_lambda_count(p))
    return objective(cfg, ski_core.gael_tokens(s), semantic_distance(p, s, tuples, cfg.fuel))


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
    closed = ski_core.inline_ski_defs(prog)
    names = [name for name, _ in prog.defs]
    return [
        _Item(name=name, source=body, inlined=closed[name], constants=frozenset(names[:i]))
        for i, (name, body) in enumerate(prog.items())
    ]


def item_checks(
    source: Program, encoded: Program, cfg: MdlConfig
) -> Iterator[tuple[Term, Term, list[tuple[int, ...]]]]:
    """Per source item: its closed source side, its closed encoded side
    and its probe tuples.  `encoded` is closed once for the whole program."""
    closed = ski_core.inline_ski_defs(encoded)
    for item in _items_of(source):
        yield item.inlined, closed[item.name], cfg.probe_tuples(item.arity)


def program_distance(source: Program, encoded: Program, cfg: MdlConfig) -> float:
    """Max per-item distance between a source program and its encoding."""
    checks = item_checks(source, encoded, cfg)
    return max((semantic_distance(p, s, tuples, cfg.fuel) for p, s, tuples in checks), default=0.0)


@dataclass
class _Candidate:
    rules: tuple[int, ...]  # indices into `cfg.rule_sets`, padded to every item
    tokens: int
    unprobed: list[tuple[int, ...]]  # its rule prefixes not probed yet, shortest first
    known_max: float = 0.0  # the largest distance among its probed prefixes
    text: Optional[str] = None  # its program text, once read (`_Search.text`)


class _Search:
    """What the candidates of one search share: each item's encoding per
    rule set and its tokens, the GAEL lines read so far, its source side's
    probe keys, and each probed rule prefix's closed item and distance.

    A candidate's distance is the max over its rule prefixes.  While some
    prefix is unprobed it lies in [largest known, 1], and since
    `objective` is monotone in the distance (in floating point too), so
    does the candidate's objective between the two ends' objectives.
    """

    def __init__(self, items: list[_Item], cfg: MdlConfig):
        self.items, self.cfg = items, cfg
        self.encodings: dict[tuple[int, int], tuple[Term, int]] = {}  # term, its GAEL line's tokens
        for i, item in enumerate(items):
            ski_core.check_closed(item.source, item.constants)  # once, not per rule set
            for r, rule_set in enumerate(cfg.rule_sets):
                term = ski_core.bracket_abstract(item.source, rule_set, constants=None)
                self.encodings[i, r] = term, ski_core.gael_tokens(term) + 3 * (item.name is not None)
        self.lines: dict[tuple[int, int], str] = {}  # GAEL lines printed so far
        self.closings: dict[tuple[int, ...], Term] = {}
        self.distances: dict[tuple[int, ...], float] = {}  # rule prefix -> its last item's distance
        self.source_keys: dict[int, ski_core.ProbeKeys] = {}  # item index -> its source side's probe keys

    def choices(self) -> list[list[int]]:
        """The rule sets the beam may give each item: its fewest-token
        ones where one token outweighs any distance, else all of them.

        If at each step's padded token count T, T tokens at distance 1
        sort before T + 1 at distance 0 (`objective` is monotone in both),
        the fewest-token candidates lead every step in the same order,
        whatever else the beam holds.  If each item's fewest-token rule
        sets also print one line, all candidates share one text, and the
        beam keeps the first."""
        every = range(len(self.cfg.rule_sets))
        tokens = [[self.encodings[i, r][1] for r in every] for i in range(len(self.items))]
        padded = sum(row[0] for row in tokens)
        for row in tokens:
            padded += min(row) - row[0]
            if not objective(self.cfg, padded, 1.0) < objective(self.cfg, padded + 1, 0.0):
                return [list(every) for _ in tokens]
        fewest = [[r for r in every if row[r] == min(row)] for row in tokens]
        # GAEL printing is injective: rule sets print one line where their terms are equal
        first = [self.encodings[i, rules[0]][0] for i, rules in enumerate(fewest)]
        if all(self.encodings[i, r][0] == first[i] for i, rules in enumerate(fewest) for r in rules[1:]):
            return [rules[:1] for rules in fewest]
        return fewest

    def line(self, i: int, r: int) -> str:
        """Item i's GAEL line under rule set r, printed when first read."""
        if (i, r) not in self.lines:
            item = Program.of_items([(self.items[i].name, self.encodings[i, r][0])])
            self.lines[i, r] = gael_print_program(item)
        return self.lines[i, r]

    def candidate(self, state: tuple[int, ...]) -> _Candidate:
        """A state padded with the first rule set."""
        rules = state + (0,) * (len(self.items) - len(state))
        prefixes = [rules[: i + 1] for i in range(len(rules))]
        return _Candidate(rules, sum(self.encodings[i, r][1] for i, r in enumerate(rules)), prefixes)

    def text(self, c: _Candidate) -> str:
        """The candidate's program text, joined from its item lines when
        first read (no token spans a line); only the beam's comparisons
        read it."""
        if c.text is None:
            c.text = "\n".join(self.line(i, r) for i, r in enumerate(c.rules))
        return c.text

    def closed(self, prefix: tuple[int, ...]) -> Term:
        """The prefix's last item, encoded under its rule set and closed
        over the prefix's earlier items, as `ski_core.inline_ski_defs`
        would close it; each shorter prefix is closed once."""
        for k in range(1, len(prefix) + 1):
            if prefix[:k] not in self.closings:
                earlier = {self.items[j].name: self.closings[prefix[: j + 1]] for j in range(k - 1)}
                body = self.encodings[k - 1, prefix[k - 1]][0]
                self.closings[prefix[:k]] = ski_core.substitute_free(body, earlier)
        return self.closings[prefix]

    def probe(self, prefix: tuple[int, ...]) -> None:
        """Store the prefix's distance.  Its item's probe tuples are built
        and its source side probed once, at the item's first prefix, and
        every prefix compares with those keys."""
        i = len(prefix) - 1
        item, fuel = self.items[i], self.cfg.fuel
        if i not in self.source_keys:
            self.source_keys[i] = ski_core.probe_keys(item.inlined, self.cfg.probe_tuples(item.arity), fuel)
        keys = self.source_keys[i]
        self.distances[prefix] = semantic_distance(item.inlined, self.closed(prefix), keys[0], fuel, keys)

    def distance_bounds(self, c: _Candidate) -> tuple[float, float]:
        """[lo, hi] holding the candidate's distance."""
        unprobed = []
        for p in c.unprobed:
            if p in self.distances:
                c.known_max = max(c.known_max, self.distances[p])
            else:
                unprobed.append(p)
        c.unprobed = unprobed
        return c.known_max, (1.0 if unprobed else c.known_max)

    def key(self, c: _Candidate, dist: float) -> tuple[float, int, str]:
        return objective(self.cfg, c.tokens, dist), c.tokens, self.text(c)

    def compare(self, a: _Candidate, b: _Candidate) -> int:
        """Order by (objective, tokens, text), probing while the two
        objective intervals leave the order open.  Equal texts are equal
        programs, whose distances are equal too."""
        if self.text(a) == self.text(b):
            return 0
        while True:
            (a_lo, a_hi), (b_lo, b_hi) = self.distance_bounds(a), self.distance_bounds(b)
            if self.key(a, a_hi) < self.key(b, b_lo):
                return -1
            if self.key(b, b_hi) < self.key(a, a_lo):
                return 1
            # refine the one ahead on its lower bound first: if it stays
            # ahead once exact, the other needs no more probes
            open_ = [c for c, lo, hi in ((a, a_lo, a_hi), (b, b_lo, b_hi)) if lo < hi]
            self.probe(min(open_, key=lambda c: self.key(c, c.known_max)).unprobed[0])


def compress_program(prog: Program, cfg: MdlConfig = MdlConfig()) -> CompressionPlan:
    """Per-item rule sets by beam search over `_Search.choices`, then
    extraction moves.

    A state is a rule prefix; the items past it take the first rule set.
    A beam step keeps the `beam_width` candidates that sort first by
    (objective, tokens, text), ties in candidate order: `nsmallest` is
    `sorted(...)[:beam_width]`, stable too.  Item i's distance
    depends only on the rules of items 0..i, so it is probed once per such
    prefix, and only where two candidates' objective intervals overlap.
    """
    items = _items_of(prog)
    if not items:
        raise ValueError("program has no definitions and no main expression")
    search = _Search(items, cfg)
    key = functools.cmp_to_key(search.compare)
    beam: list[tuple[int, ...]] = [()]
    for step, rules in enumerate(search.choices(), 1):
        states = [state + (r,) for state in beam for r in rules]
        chosen = heapq.nsmallest(cfg.beam_width, map(search.candidate, states), key=key)
        beam = [c.rules[:step] for c in chosen]

    rules, tokens = chosen[0].rules, chosen[0].tokens
    encoded = Program.of_items([(items[i].name, search.encodings[i, r][0]) for i, r in enumerate(rules)])
    if cfg.extraction_enabled:
        encoded, _, tokens = _extract_with_trace(encoded, tokens)
    return CompressionPlan(encoded, tokens)


# --- common-subterm extraction ---------------------------------------------


def _census(prog: Program) -> tuple[list[list], str]:
    """One walk over a GAEL program, whose terms are applications and
    leaves, interning each node by its children's ids rather than hashing
    the term: a row [term, count, node count, GAEL tokens, occurrences in
    argument position] per distinct node, an application's at the end of
    its first occurrence's walk (a leaf's count stays 0), and the first
    `qN` that names no definition and no free variable."""
    ids: dict[object, int] = {}  # a leaf, or an application's (fun id, arg id)
    rows: list[list] = []
    used = {name for name, _ in prog.defs}

    def visit(t: Term) -> int:
        if type(t) is not App:
            i = ids.get(t)
            if i is None:
                i = ids[t] = len(rows)
                rows.append([t, 0, 1, 1, 0])
                if type(t) is Var:
                    used.add(t.name)
            return i
        arg = type(t.arg) is App
        key = f, a = visit(t.fun), visit(t.arg)
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(rows)
            rows.append([t, 0, 1 + rows[f][2] + rows[a][2], rows[f][3] + rows[a][3] + 2 * arg, 0])
        rows[i][1] += 1
        rows[a][4] += arg
        return i

    for _, body in prog.items():
        visit(body)
    return rows, next(f"q{i}" for i in itertools.count() if f"q{i}" not in used)


def _replace_subterm(t: Term, target: Term, name: str) -> Term:
    if t == target:
        return Var(name)
    if isinstance(t, App):
        return App(
            _replace_subterm(t.fun, target, name), _replace_subterm(t.arg, target, name)
        )
    return t


def _apply_extraction(prog: Program, target: Term, name: str) -> Program:
    new_items: list[tuple[Optional[str], Term]] = []
    inserted = False
    for item_name, body in prog.items():
        replaced = _replace_subterm(body, target, name)
        if replaced != body and not inserted:
            new_items.append((name, target))
            inserted = True
        new_items.append((item_name, replaced))
    return Program.of_items(new_items)


def _extract_with_trace(prog: Program, tokens: int) -> tuple[Program, list[str], int]:
    """Extraction moves from `prog`, whose GAEL token count is `tokens`:
    the extracted program, its new names and its token count.

    Each round prices every move from one census.  Extracting a subterm
    of `tok` tokens that occurs `count` times, `args` of them in argument
    position, takes its tokens and those parentheses from each occurrence,
    leaves one name there, and adds a definition of `tok + 3` tokens; a
    single occurrence never shrinks the program.  The move taken is the
    least by (-count, -size, text) among those that shrink it, and only
    its program is built."""
    moves: list[str] = []
    while True:
        rows, name = _census(prog)
        shrinking = [
            (-count, -size, term, after)
            for term, count, size, tok, args in rows
            if (after := tokens - count * tok - 2 * args + count + tok + 3) < tokens
        ]
        if not shrinking:
            return prog, moves, tokens
        first = min(m[:2] for m in shrinking)
        tied = [m for m in shrinking if m[:2] == first]
        _, _, term, tokens = tied[0] if len(tied) == 1 else min(tied, key=lambda m: pretty_print(m[2]))
        prog = _apply_extraction(prog, term, name)
        moves.append(name)


def extract_common_subterms(prog: Program, cfg: MdlConfig = MdlConfig()) -> Program:
    """Extract repeated subterms while each move strictly shrinks tokens."""
    if not cfg.extraction_enabled:
        return prog
    return _extract_with_trace(prog, gael_program_tokens(prog))[0]
