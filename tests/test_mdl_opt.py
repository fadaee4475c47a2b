import itertools
import math
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skic import cli_pipeline as CP
from skic import lambda_ir as L
from skic import mdl_opt as MD
from skic import metrics as M
from skic import ski_core as SK
from skic.mdl_opt import MdlConfig
from skic.ski_core import RuleSet

from conftest import corpus_sources, gen_chain, gen_normalizing_term, gen_ski_term, term_size
from test_type_infer import arithmetic_programs

THREE_DEF_FIXTURES = [
    "double := \\x. #mul 2 x;\n"
    "shift := \\x. #add (double x) 1;\n"
    "wrap := \\x. shift (double x);\n"
    "wrap 3",
    "inc := \\x. #add x 1;\n"
    "sq := \\x. #mul x x;\n"
    "poly := \\x. #add (sq x) (inc x);\n"
    "poly 2",
    "first := \\x.\\y. x;\n"
    "second := \\x.\\y. y;\n"
    "pick := \\x.\\y. first x (second x y);\n"
    "pick 4 9",
]


# --- semantic distance ------------------------------------------------------------


def test_distance_zero_for_encodings():
    rng = random.Random(71)
    for _ in range(10):
        t = gen_normalizing_term(rng, max_depth=4)
        for rules in MD.ALL_RULE_SETS:
            s = SK.bracket_abstract(t, rules)
            assert MD.semantic_distance(t, s, SK.probe_tuples(L.leading_lambda_count(t), 216), fuel=50000) == 0.0


def test_distance_positive_identity_vs_const():
    t = L.parse_term(r"\x. x")
    dist = MD.semantic_distance(t, SK.K, SK.probe_tuples(1, 216))
    assert dist > 0.0


@pytest.mark.parametrize("make", [
    lambda: SK.probe_tuples(1, 0),
    lambda: MdlConfig(max_probes=0),
], ids=["max_tuples", "max_probes"])
def test_zero_probes_rejected(make):
    # an empty probe set would make every distance 0 and every verdict `equal`
    with pytest.raises(ValueError, match="probe tuple count must be positive"):
        make()


# --- objective ----------------------------------------------------------------------


def test_objective_lambda_one_is_token_count():
    # the lexer's count of the printed term is the definition of a token
    t = L.parse_term(r"\x.\y. #add x y")
    s = SK.bracket_abstract(t, RuleSet.NAIVE)
    cfg = MdlConfig(lambda_weight=1.0)
    assert MD.mdl_objective(s, t, cfg) == M.token_count(L.pretty_print(s), "gael")
    rng = random.Random(29)
    for _ in range(40):
        s = gen_ski_term(rng)
        assert MD.mdl_objective(s, s, cfg) == M.token_count(L.pretty_print(s), "gael"), s


def test_objective_refuses_an_encoding_holding_a_lambda():
    t = L.parse_term(r"\x. x")
    with pytest.raises(ValueError, match="no lambda"):
        MD.mdl_objective(t, t, MdlConfig())


def test_objective_lambda_zero_is_distance():
    t = L.parse_term(r"\x. x")
    cfg = MdlConfig(lambda_weight=0.0)
    assert MD.mdl_objective(SK.I, t, cfg) == 0.0
    assert MD.mdl_objective(SK.K, t, cfg) == MD.semantic_distance(
        t, SK.K, cfg.probe_tuples(1), cfg.fuel
    )


def test_config_validation():
    with pytest.raises(ValueError):
        MdlConfig(lambda_weight=1.5)
    with pytest.raises(ValueError):
        MdlConfig(beam_width=0)
    with pytest.raises(ValueError):
        MdlConfig(rule_sets=())
    with pytest.raises(ValueError, match="rule_sets must not repeat"):
        MdlConfig(rule_sets=(RuleSet.ETA_OPTIMIZED, RuleSet.ETA_OPTIMIZED))


def test_objective_counts_gael_tokens():
    t = L.parse_term(r"\x.\y. #add x y")
    s = SK.bracket_abstract(t, RuleSet.ETA_OPTIMIZED)  # "#add": 4 bytes, 1 token
    assert MD.mdl_objective(s, t, MdlConfig(lambda_weight=1.0)) == 1


def plan_objective(prog: L.Program, plan: MD.CompressionPlan, cfg: MdlConfig) -> float:
    """The objective of `plan`, a compression of `prog`, at the distance
    verification measures on the emitted program."""
    return MD.objective(cfg, plan.token_length, MD.program_distance(prog, plan.encoded, cfg))


def test_compress_plan_objective_decomposes():
    source = "add2 := \\x. #add x 2;\nadd2 5"
    cfg = MdlConfig()
    result = CP.run_pipeline(source, cfg)
    assert result.report.s_tokens == result.plan.token_length == M.token_count(result.gael_text, "gael")
    dist = MD.program_distance(L.parse_program(source), result.plan.encoded, cfg)
    recomputed = cfg.lambda_weight * result.plan.token_length + (1 - cfg.lambda_weight) * dist
    assert abs(result.report.objective - recomputed) < 1e-12


# --- one-term programs -----------------------------------------------------------


def test_compress_identity():
    prog = L.Program((), L.parse_term(r"\x. x"))
    plan = MD.compress_program(prog)
    assert plan == MD.CompressionPlan(L.Program((), SK.I), 1)
    assert MD.program_distance(prog, plan.encoded, MdlConfig()) == 0.0


def test_compress_add2_fixture():
    prog = L.parse_program("add2 := \\x. #add x 2;\nadd2 5")
    plan = MD.compress_program(prog)
    main = SK.inline_ski_defs(plan.encoded)[None]
    assert SK.ski_reduce(main) == L.IntLit(7)
    assert MD.program_distance(prog, plan.encoded, MdlConfig()) == 0.0


def test_objective_recomputable_from_fields():
    cfg = MdlConfig()
    for _, source in corpus_sources()[:8]:
        result = CP.run_pipeline(source, cfg)
        dist = MD.program_distance(L.parse_program(source), result.plan.encoded, cfg)
        recomputed = cfg.lambda_weight * result.report.s_tokens + (1 - cfg.lambda_weight) * dist
        assert abs(result.report.objective - recomputed) < 1e-12


def test_dominance_over_single_shot_eta():
    cfg = MdlConfig()
    for _, source in corpus_sources():
        prog = L.parse_program(source)
        plan = MD.compress_program(prog, cfg)
        eta_cfg = MdlConfig(rule_sets=(RuleSet.ETA_OPTIMIZED,), extraction_enabled=False)
        eta_plan = MD.compress_program(prog, eta_cfg)
        assert plan_objective(prog, plan, cfg) <= plan_objective(prog, eta_plan, eta_cfg) + 1e-12


# --- beam vs exhaustive oracle ---------------------------------------------------------


def _encode(items: list, rules: tuple[RuleSet, ...]) -> L.Program:
    return L.Program.of_items([
        (item.name, SK.bracket_abstract(item.source, rs, constants=item.constants))
        for item, rs in zip(items, rules)
    ])


def exhaustive_best_objective(prog: L.Program, cfg: MdlConfig) -> float:
    """Independent search: every rule assignment, extraction applied after."""
    items = MD._items_of(prog)
    best = None
    for combo in itertools.product(cfg.rule_sets, repeat=len(items)):
        encoded = _encode(items, combo)
        if cfg.extraction_enabled:
            encoded = MD.extract_common_subterms(encoded, cfg)
        tokens = M.token_count(SK.gael_print_program(encoded), "gael")
        dist = MD.program_distance(prog, encoded, cfg)
        objective = cfg.lambda_weight * tokens + (1 - cfg.lambda_weight) * dist
        if best is None or objective < best:
            best = objective
    return best


@pytest.mark.parametrize("source", THREE_DEF_FIXTURES)
def test_beam_matches_exhaustive_on_three_def_fixtures(source):
    prog = L.parse_program(source)
    cfg = MdlConfig(beam_width=8)
    plan = MD.compress_program(prog, cfg)
    assert plan_objective(prog, plan, cfg) == exhaustive_best_objective(prog, cfg)


def test_beam_width_one_matches_exhaustive_on_three_def_fixtures():
    # per-definition token additivity makes greedy optimal as well
    for source in THREE_DEF_FIXTURES:
        prog = L.parse_program(source)
        cfg = MdlConfig(beam_width=1)
        plan = MD.compress_program(prog, cfg)
        assert plan_objective(prog, plan, cfg) == exhaustive_best_objective(prog, cfg)


FIVE_DEF_CHAIN = (
    "a := \\x. #add x 1;\n"
    "b := \\x. #mul (a x) 2;\n"
    "c := \\x. #sub (b x) (a x);\n"
    "d := \\x.\\y. #add (c x) (b y);\n"
    "e := \\x. d (a x) x;\n"
    "e 3"
)


def test_search_closing_matches_whole_program_inlining():
    # the search closes item i from items 0..i-1; verification closes the
    # whole emitted program, after extraction, and must see the same items
    rng = random.Random(5)
    sources = [src for _, src in corpus_sources()] + THREE_DEF_FIXTURES + [FIVE_DEF_CHAIN]
    for source in sources:
        items = MD._items_of(L.parse_program(source))
        search = MD._Search(items, MdlConfig())
        k = len(MD.ALL_RULE_SETS)
        uniform = [(r,) * len(items) for r in range(k)]
        for rules in uniform + [tuple(rng.randrange(k) for _ in items) for _ in range(3)]:
            encoded = _encode(items, [MD.ALL_RULE_SETS[r] for r in rules])
            for program in (encoded, MD.extract_common_subterms(encoded)):
                closed = SK.inline_ski_defs(program)
                for i, item in enumerate(items):
                    assert search.closed(rules[: i + 1]) == closed[item.name], (source, rules, item.name)


def eager_compress(prog: L.Program, cfg: MdlConfig) -> tuple[MD.CompressionPlan, float]:
    """The search as a plain sort: every candidate is encoded whole and
    every padded rule prefix probed before the beam keeps
    `sorted(candidates, key=score)[:beam_width]`.  Returns the plan and
    the objective the sort ranked it by, its tokens after extraction."""
    items = MD._items_of(prog)
    n = len(items)
    distances: dict[tuple[RuleSet, ...], float] = {}
    scores: dict[tuple[RuleSet, ...], tuple[float, int, float]] = {}

    def score(state: tuple[RuleSet, ...]) -> tuple[float, int, str]:
        full = state + (cfg.rule_sets[0],) * (n - len(state))
        encoded = _encode(items, full)
        closed = SK.inline_ski_defs(encoded)
        for i, item in enumerate(items):
            if full[: i + 1] not in distances:
                probes = cfg.probe_tuples(item.arity)
                distances[full[: i + 1]] = MD.semantic_distance(item.inlined, closed[item.name], probes, cfg.fuel)
        dist = max(distances[full[: i + 1]] for i in range(n))
        text = SK.gael_print_program(encoded)
        tokens = M.token_count(text, "gael")
        scores[state] = (MD.objective(cfg, tokens, dist), tokens, dist)
        return scores[state][0], tokens, text

    beam: list[tuple[RuleSet, ...]] = [()]
    for _ in range(n):
        candidates = [state + (rs,) for state in beam for rs in cfg.rule_sets]
        beam = sorted(candidates, key=score)[: cfg.beam_width]

    best = beam[0]
    objective, tokens, dist = scores[best]
    encoded = _encode(items, best)
    if cfg.extraction_enabled:
        encoded, _, tokens = MD._extract_with_trace(encoded, tokens)
        objective = MD.objective(cfg, tokens, dist)
    return MD.CompressionPlan(encoded, tokens), objective


GENERATED_CHAINS = [gen_chain(random.Random(seed), n) for seed, n in ((1, 4), (2, 6), (3, 8))]
REFERENCE_SOURCES = THREE_DEF_FIXTURES + [FIVE_DEF_CHAIN] + GENERATED_CHAINS
RULE_ORDERS = [
    MD.ALL_RULE_SETS,
    (RuleSet.ETA_OPTIMIZED,),
    (RuleSet.WITH_I, RuleSet.ETA_OPTIMIZED, RuleSet.NAIVE),
]


def _scrambled_distance(p: L.Term, s: L.Term, probes: list, fuel: int, p_keys=None) -> float:
    """A stand-in for semantic_distance that takes every value in
    {0, 0.25, ..., 1}, fixed by the encoded side's text: correct encodings
    only ever give 0 or 0.5, and the search must be exact for any distance."""
    return zlib.crc32(L.pretty_print(s).encode()) % 5 / 4


@pytest.fixture(params=["probed", "scrambled"])
def shared_distance(request, monkeypatch):
    """Both searches call MD.semantic_distance; a shared memo probes each
    closed pair once across the whole grid.  It leaves the source side's
    keys out of its key: they are `probe_keys(p, probes, fuel)`, which
    test_search_store_matches_fresh_distances checks."""
    base = MD.semantic_distance if request.param == "probed" else _scrambled_distance
    memo: dict[tuple, float] = {}

    def shared(p, s, probes, fuel, p_keys=None):
        key = p, s, tuple(probes), fuel
        if key not in memo:
            memo[key] = base(p, s, probes, fuel, p_keys)
        return memo[key]

    monkeypatch.setattr(MD, "semantic_distance", shared)


@pytest.mark.parametrize("rules", RULE_ORDERS, ids=["all", "eta", "permuted"])
def test_search_matches_eager_reference(rules, shared_distance):
    # the lazy beam must choose what a full sort chooses, for every weight
    # (0 and 1 leave only distance or only tokens) and width, and the
    # emitted program must score the objective the sort ranked it by;
    # fuel 60 makes some probes run out, so 0.5 distances occur
    for source in REFERENCE_SOURCES:
        prog = L.parse_program(source)
        for w, width in itertools.product((0.0, 0.5, 0.9, 0.99, 1.0), (1, 2, 3, 8)):
            cfg = MdlConfig(lambda_weight=w, beam_width=width, rule_sets=rules, fuel=60)
            plan, objective = eager_compress(prog, cfg)
            assert MD.compress_program(prog, cfg) == plan, (source, cfg)
            assert plan_objective(prog, plan, cfg) == objective, (source, cfg)


def test_search_matches_eager_reference_on_corpus(shared_distance):
    programs = [L.parse_program(source) for _, source in corpus_sources()]
    for w, (width, rules) in itertools.product((0.0, 0.5, 0.99, 1.0), ((8, MD.ALL_RULE_SETS), (2, RULE_ORDERS[2]))):
        cfg = MdlConfig(lambda_weight=w, beam_width=width, rule_sets=rules)
        for prog in programs:
            plan, objective = eager_compress(prog, cfg)
            assert MD.compress_program(prog, cfg) == plan, (prog, cfg)
            assert plan_objective(prog, plan, cfg) == objective, (prog, cfg)


@pytest.fixture
def distance_calls(monkeypatch) -> list[int]:
    """Counts MD.semantic_distance calls in its one element."""
    calls = [0]
    distance = MD.semantic_distance

    def counted(*args, **kwargs):
        calls[0] += 1
        return distance(*args, **kwargs)

    monkeypatch.setattr(MD, "semantic_distance", counted)
    return calls


def test_search_probes_at_most_half_of_eager(distance_calls):
    # at weight 0.5 a token and a whole distance tie, so the beam runs over
    # every rule set; at the default weight tokens decide and nothing is probed
    cfg = MdlConfig(lambda_weight=0.5)
    programs = [L.parse_program(source) for _, source in corpus_sources()]
    for prog in programs:
        eager_compress(prog, cfg)
    eager_calls, distance_calls[0] = distance_calls[0], 0
    for prog in programs:
        MD.compress_program(prog, cfg)
    assert distance_calls[0] * 2 <= eager_calls, (distance_calls[0], eager_calls)


def test_search_probes_nothing_after_the_beam(distance_calls):
    # the search probes only where the beam compares two candidates; the
    # chosen program's distance is verification's to measure
    for _, source in corpus_sources():
        MD.compress_program(L.parse_program(source), MdlConfig(lambda_weight=0.5))
    assert distance_calls[0] <= 18, distance_calls[0]


def test_beam_probes_on_ten_def_chains(distance_calls):
    # no benchmark workload runs the beam: they all run at the default
    # weight, where tokens decide; these bounds are the beam's counts at
    # weight 0.5, so a beam that probes more fails here
    cfg = MdlConfig(lambda_weight=0.5)
    for seed, bound in ((1, 359), (2, 361)):
        distance_calls[0] = 0
        MD.compress_program(L.parse_program(gen_chain(random.Random(seed), 10)), cfg)
        assert distance_calls[0] <= bound, (seed, distance_calls[0], bound)


def test_search_probes_each_source_item_once(monkeypatch):
    # however many rule prefixes of an item the beam compares, the search
    # probes the item's closed source once per probe tuple
    items_of, comparison_forms = MD._items_of, SK.comparison_forms
    items: list[MD._Item] = []
    source_calls = [0]

    def recorded(prog):
        items[:] = items_of(prog)
        return items

    def counted(side, tuples, fuel):
        source_calls[0] += len(tuples) * any(side is item.inlined for item in items)
        return comparison_forms(side, tuples, fuel)

    monkeypatch.setattr(MD, "_items_of", recorded)
    monkeypatch.setattr(SK, "comparison_forms", counted)
    cfg = MdlConfig(lambda_weight=0.5)  # at the default weight tokens decide, and nothing is probed
    for source in [FIVE_DEF_CHAIN] + GENERATED_CHAINS:
        source_calls[0] = 0
        MD.compress_program(L.parse_program(source), cfg)
        bound = sum(len(cfg.probe_tuples(item.arity)) for item in items)
        assert 0 < source_calls[0] <= bound, (source, source_calls[0], bound)


@pytest.fixture
def comparison_calls(monkeypatch) -> list[int]:
    """Counts the tuples SK.comparison_forms probes, one per probe tuple and side, in its one element."""
    calls = [0]
    comparison_forms = SK.comparison_forms

    def counted(side, tuples, fuel):
        calls[0] += len(tuples)
        return comparison_forms(side, tuples, fuel)

    monkeypatch.setattr(SK, "comparison_forms", counted)
    return calls


def test_default_config_plans_probe_nothing(comparison_calls):
    # at the default weight GAEL tokens alone decide these plans: the
    # search probes nothing, and each plan is still the full sort's
    cfg = MdlConfig()
    for source in [FIVE_DEF_CHAIN] + GENERATED_CHAINS + [src for _, src in corpus_sources()]:
        prog = L.parse_program(source)
        comparison_calls[0] = 0
        plan = MD.compress_program(prog, cfg)
        assert comparison_calls[0] == 0, source
        assert plan == eager_compress(prog, cfg)[0], source


def test_token_decided_plans_match_eager_reference():
    # random configs on both sides of the condition under which
    # `_Search.choices` prunes: weights around 0.5 (at 0.5 a token and a
    # whole distance tie), widths, rule subsets and orders, fuel and probe
    # counts
    rng = random.Random(2121)
    weights = (0.0, 0.25, 0.5, math.nextafter(0.5, 1), 0.5 + 1e-9, 0.75, 0.99, 1.0)
    pruned = []
    for _ in range(60):
        prog = L.parse_program(gen_chain(rng, rng.randint(1, 5)))
        rules = tuple(rng.sample(MD.ALL_RULE_SETS, rng.randint(1, 3)))
        cfg = MdlConfig(lambda_weight=rng.choice(weights), beam_width=rng.randint(1, 8), rule_sets=rules,
                        fuel=rng.randint(50, 10_000), max_probes=rng.randint(1, 216))
        search = MD._Search(MD._items_of(prog), cfg)
        pruned.append(search.choices() != [list(range(len(rules)))] * len(search.items))
        assert MD.compress_program(prog, cfg) == eager_compress(prog, cfg)[0], (prog, cfg)
    assert set(pruned) == {False, True}


class _SeededSearch(MD._Search):
    """A search whose first rule set encodes item 0 as `seed`."""

    seed: L.Term = SK.parse_gael_program("S #add (K 2)").main

    def __init__(self, items, cfg):
        super().__init__(items, cfg)
        line = SK.gael_print_program(L.Program.of_items([(items[0].name, self.seed)]))
        self.encodings[0, 0] = self.seed, M.token_count(line, "gael")


def test_token_tie_with_different_text_falls_back_to_the_beam(monkeypatch, comparison_calls):
    # eta's line for inc, "S #add (K 1)", ties in tokens with the seeded
    # "S #add (K 2)" of rule set 0; tokens alone would take rule set 0, so
    # the beam keeps both, and only its probes find rule set 0 wrong
    prog = L.parse_program("inc := \\x. #add x 1;\ninc 3")
    cfg = MdlConfig()
    plan = MD.compress_program(prog, cfg)
    assert comparison_calls[0] == 0
    monkeypatch.setattr(MD, "_Search", _SeededSearch)
    search = _SeededSearch(MD._items_of(prog), cfg)
    (_, seeded_tokens), (_, eta_tokens) = search.encodings[0, 0], search.encodings[0, 2]
    assert search.line(0, 0) != search.line(0, 2) and seeded_tokens == eta_tokens
    assert search.choices() == [[0, 2], [0, 1, 2]]
    assert MD.compress_program(prog, cfg) == plan
    assert comparison_calls[0] > 0


def _bump_literals(t: L.Term) -> L.Term:
    """`t` with every integer literal one larger: as many GAEL tokens, a different line."""
    if isinstance(t, L.IntLit):
        return L.IntLit(t.value + 1)
    if isinstance(t, L.App):
        return L.App(_bump_literals(t.fun), _bump_literals(t.arg))
    return t


class _TiedSearch(MD._Search):
    """A search whose encodings at the `tied` (item, rule set) pairs have
    their literals bumped: a rule set that printed another's line now ties
    with it in tokens, with a different, wrong text."""

    tied: tuple[tuple[int, int], ...] = ()

    def __init__(self, items, cfg):
        super().__init__(items, cfg)
        for i, r in self.tied:
            term = _bump_literals(self.encodings[i, r][0])
            line = SK.gael_print_program(L.Program.of_items([(items[i].name, term)]))
            self.encodings[i, r] = term, M.token_count(line, "gael")


class _UnprunedTiedSearch(_TiedSearch):
    """The same seeded search with every rule set open to every item."""

    def choices(self):
        return [list(range(len(self.cfg.rule_sets))) for _ in self.items]


@pytest.mark.parametrize("seed, distance", [(2222, None), (54, _scrambled_distance)], ids=["probed", "scrambled"])
def test_pruned_choices_match_the_unpruned_beam(seed, distance, monkeypatch):
    # token ties with different text, seeded at random: wherever
    # `choices` prunes, the beam must still choose what it chooses over
    # every rule set, and in all it should probe fewer rule prefixes.  The
    # stand-in takes every distance; in its sample, a beam that dropped a
    # rule set repeating another's line would choose differently
    base, probed = distance or MD.semantic_distance, [0]

    def counted(*args):
        probed[0] += 1
        return base(*args)

    monkeypatch.setattr(MD, "semantic_distance", counted)
    rng = random.Random(seed)
    weights = (0.5, math.nextafter(0.5, 1), 0.75, 0.99, 1.0)
    outcomes, calls = set(), {_TiedSearch: 0, _UnprunedTiedSearch: 0}
    for _ in range(100):
        prog = L.parse_program(gen_chain(rng, rng.randint(1, 5)))
        rules = tuple(rng.sample(MD.ALL_RULE_SETS, rng.randint(2, 3)))
        cfg = MdlConfig(lambda_weight=rng.choice(weights), beam_width=rng.randint(1, 8), rule_sets=rules,
                        extraction_enabled=False)
        items = MD._items_of(prog)
        monkeypatch.setattr(_TiedSearch, "tied", ())
        bumpable = [k for k, (term, _) in _TiedSearch(items, cfg).encodings.items() if _bump_literals(term) != term]
        monkeypatch.setattr(_TiedSearch, "tied", tuple(rng.sample(bumpable, min(len(bumpable), rng.randint(1, 4)))))
        plans = {}
        for search_class in calls:
            monkeypatch.setattr(MD, "_Search", search_class)
            probed[0] = 0
            plans[search_class] = MD.compress_program(prog, cfg)
            calls[search_class] += probed[0]
        assert plans[_TiedSearch] == plans[_UnprunedTiedSearch], (prog, cfg, _TiedSearch.tied)
        choices = _TiedSearch(items, cfg).choices()
        outcomes.add("unpruned" if choices == _UnprunedTiedSearch(items, cfg).choices()
                     else "tied" if max(map(len, choices)) > 1 else "one line")
    assert outcomes == {"unpruned", "tied", "one line"}
    assert calls[_TiedSearch] < calls[_UnprunedTiedSearch], calls


class _RecordedSearch(MD._Search):
    """A search that keeps itself in `made` for the test to read."""

    made: list[MD._Search] = []

    def __init__(self, items, cfg):
        super().__init__(items, cfg)
        self.made.append(self)


def _assert_store_matches_fresh(prog: L.Program, cfg: MdlConfig) -> MD._Search:
    """Compress `prog`; every distance the search stored must be a fresh
    semantic_distance of its item's source and the prefix's closed item."""
    _RecordedSearch.made.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MD, "_Search", _RecordedSearch)
        MD.compress_program(prog, cfg)
    (search,) = _RecordedSearch.made
    for prefix, dist in search.distances.items():
        item = search.items[len(prefix) - 1]
        probes = cfg.probe_tuples(item.arity)
        assert dist == MD.semantic_distance(item.inlined, search.closed(prefix), probes, cfg.fuel), prefix
    return search


_BUDGETS = st.one_of(st.integers(0, 50), st.just(L.DEFAULT_FUEL))
chain_programs = st.builds(
    lambda seed, n, literals: L.parse_program(gen_chain(random.Random(seed), n, literals)),
    st.integers(0, 2**16), st.integers(1, 5), st.sampled_from((("1", "2"), ("1", str(L.INT64_MAX)))),
)


closed_arithmetic_programs = arithmetic_programs().filter(
    lambda prog: not any(map(L.free_vars, SK.inline_ski_defs(prog).values())))


@settings(max_examples=200, deadline=None)
@given(st.one_of(chain_programs, closed_arithmetic_programs), _BUDGETS, st.sampled_from((0.0, 0.5, 0.99)))
def test_search_store_matches_fresh_distances(prog, fuel, w):
    _assert_store_matches_fresh(prog, MdlConfig(lambda_weight=w, fuel=fuel))


def test_search_store_holds_fuel_outs_and_overflows():
    # a source side that runs out of fuel, and tuples on which both
    # sides overflow, are stored outcomes like any other; at weight 0
    # only distances order the beam, so every candidate is probed
    big = str(L.INT64_MAX)
    cases = {
        "fuel": ("d0 := \\x. #add x 1;\nd1 := \\x. #mul (d0 x) (d0 x);\nd1 3", 3),
        "overflow": (f"d0 := \\x. #mul x {big};\nd1 := \\x. #add (d0 x) 1;\nd1 3", L.DEFAULT_FUEL),
    }
    seen = set()
    for source, fuel in cases.values():
        search = _assert_store_matches_fresh(L.parse_program(source), MdlConfig(lambda_weight=0.0, fuel=fuel))
        for _, keys in search.source_keys.values():
            seen |= {"fuel" for _, k in keys if k is None}
            seen |= {"overflow" for _, k in keys if isinstance(k, L.EvalOverflowError)}
    assert seen == set(cases)


def test_lambda_sweep_token_length_non_increasing():
    for _, source in corpus_sources():
        prog = L.parse_program(source)
        lengths = [
            MD.compress_program(prog, MdlConfig(lambda_weight=w)).token_length
            for w in (0.5, 0.9, 0.99)
        ]
        assert lengths[0] >= lengths[1] >= lengths[2]


# --- extraction ---------------------------------------------------------------------


def _ski(src: str) -> L.Term:
    return SK.parse_gael_program(src).main


def test_extraction_three_occurrences_arithmetic():
    # X = S (K #add) I has 5 gael tokens counting parens; appears 3 times.
    x = _ski("S (K #add) I")
    prog = L.Program(
        defs=(("a", L.App(x, L.IntLit(1))), ("b", L.App(x, L.IntLit(2)))),
        main=L.App(x, L.IntLit(3)),
    )
    before = M.token_count(SK.gael_print_program(prog), "gael")
    out = MD.extract_common_subterms(prog, MdlConfig())
    after = M.token_count(SK.gael_print_program(out), "gael")
    assert len(out.defs) == len(prog.defs) + 1
    assert after < before
    # replacement preserved every item's behavior
    before_defs = dict(SK.inline_ski_defs(prog))
    after_defs = dict(SK.inline_ski_defs(out))
    for name in ("a", "b"):
        assert SK.ski_reduce(after_defs[name]) == SK.ski_reduce(before_defs[name])
    assert SK.ski_reduce(SK.inline_ski_defs(out)[None]) == SK.ski_reduce(SK.inline_ski_defs(prog)[None])


@st.composite
def ski_programs(draw) -> L.Program:
    """Lambda-free programs of 0-4 definitions over S, K, I, #add, small
    literals and earlier definition names; leaves also draw from a pool of
    shared subterms, so extraction has repeats to find."""
    atoms = st.sampled_from((SK.S, SK.K, SK.I, L.Prim("add"), L.IntLit(1), L.IntLit(2)))
    pool = draw(st.lists(st.tuples(atoms, atoms, atoms), min_size=1, max_size=3))
    shared = [L.apply_spine(*parts) for parts in pool]
    defs: list[tuple[str, L.Term]] = []

    def term(depth: int) -> L.Term:
        leaves = st.one_of(st.sampled_from(shared + [L.Var(n) for n, _ in defs]), atoms)
        if depth == 0 or draw(st.booleans()):
            return draw(leaves)
        return L.App(term(depth - 1), term(depth - 1))

    for i in range(draw(st.integers(0, 4))):
        defs.append((f"d{i}", term(3)))
    main = term(3) if draw(st.booleans()) else None
    return L.Program(tuple(defs), main)


def _separate_census(prog: L.Program) -> tuple[dict, str]:
    """The extraction census as separate walks: each application counted
    in pre-order, sized by `term_size`, and the first qN naming no
    definition and no free variable."""
    counts: dict = {}

    def visit(t: L.Term) -> None:
        if isinstance(t, L.App):
            counts[t] = counts.get(t, 0) + 1
            visit(t.fun)
            visit(t.arg)

    for _, body in prog.items():
        visit(body)
    used = {name for name, _ in prog.defs}.union(*(L.free_vars(body) for _, body in prog.items()))
    name = next(f"q{i}" for i in itertools.count() if f"q{i}" not in used)
    return {t: [count, term_size(t)] for t, count in counts.items()}, name


_LAM_PROGRAM = L.Program(
    (("q0", L.parse_term(r"\x. \y. x y")),),
    L.apply_spine(L.Var("q0"), *[L.Lam("z", L.App(L.Var("q1"), L.Var("z")))] * 2, L.parse_term(r"\q2. q2")),
)


@settings(deadline=None)
@given(st.one_of(ski_programs(), st.builds(lambda p, n: L.Program(p.defs, L.App(L.Var(n), p.main or SK.I)),
                                           ski_programs(), st.sampled_from(("q0", "q1", "x")))))
def test_census_matches_separate_walks(prog):
    census, name = MD._census(prog)
    assert list(census.items()) == list(_separate_census(prog)[0].items())
    assert name == _separate_census(prog)[1]


@settings(deadline=None)
@given(ski_programs())
def test_extraction_leaves_closed_items_unchanged(prog):
    closed = SK.inline_ski_defs(prog)
    after = SK.inline_ski_defs(MD.extract_common_subterms(prog))
    assert {name: after[name] for name in closed} == closed


def test_extraction_refuses_a_program_holding_a_lambda():
    with pytest.raises(ValueError, match="no lambda"):
        MD.extract_common_subterms(_LAM_PROGRAM)


def test_extraction_no_repeats_unchanged():
    prog = L.Program(defs=(), main=_ski("S (K #add) I"))
    assert MD.extract_common_subterms(prog, MdlConfig()) == prog


def test_extraction_identity_program_unchanged():
    prog = L.Program(defs=(("idf", SK.I),), main=None)
    assert MD.extract_common_subterms(prog, MdlConfig()) == prog


def test_extraction_never_increases_tokens():
    rng = random.Random(83)
    for _ in range(20):
        t = gen_normalizing_term(rng, max_depth=5)
        encoded = SK.bracket_abstract(t, RuleSet.NAIVE)
        prog = L.Program(defs=(), main=encoded)
        out = MD.extract_common_subterms(prog, MdlConfig())
        assert M.token_count(SK.gael_print_program(out), "gael") <= M.token_count(
            SK.gael_print_program(prog), "gael"
        )


def test_extraction_respects_flag():
    x = _ski("S (K #add) I")
    prog = L.Program(defs=(), main=L.App(L.App(x, x), x))
    cfg = MdlConfig(extraction_enabled=False)
    assert MD.extract_common_subterms(prog, cfg) == prog
