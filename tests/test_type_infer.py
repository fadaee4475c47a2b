import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skic import cli_pipeline as CP
from skic import lambda_ir as L
from skic import ski_core as SK
from skic import type_infer as TI
from skic.mdl_opt import MdlConfig
from skic.type_infer import TypeTag

from conftest import corpus_sources, gen_chain, gen_normalizing_term
from test_ski_core import _key_outcome


def p(src: str) -> L.Term:
    return L.parse_term(src, allow_free=True)


# --- independent brute-force oracle (separate code path) -------------------------


def oracle_posterior(cs: tuple[TI.Factor, ...], variables: list[str]) -> dict[tuple, float]:
    """Plain enumeration + raw softmax, no stabilization shift."""
    table = {}
    for combo in itertools.product(list(TypeTag), repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        e = 0.0
        for f in cs:
            tags = [assignment[v] for v in f.clique] + list(f.fixed)
            if f.kind == "bool_cond":
                bad = tags[0] is not TypeTag.BOOL
            elif f.kind == "numeric":
                bad = not (all(t is tags[0] for t in tags) and tags[0] in (TypeTag.INT, TypeTag.REAL))
            else:
                bad = not all(t is tags[0] for t in tags)
            if bad:
                e += f.weight
        table[combo] = math.exp(-e)
    z = sum(table.values())
    return {combo: w / z for combo, w in table.items()}


# --- constraint extraction ------------------------------------------------------


def test_add_with_literal_two_variables():
    variables, cs = TI.build_constraints(p("#add x 1"), {})
    assert len(variables) == 2
    numeric = [f for f in cs if f.kind == "numeric"]
    assert len(numeric) == 1
    assert numeric[0].clique == tuple(variables)
    assert numeric[0].weight == 1.0


def test_if_condition_forces_bool():
    variables, cs = TI.build_constraints(p("#if x 1 2"))
    cond = [f for f in cs if f.kind == "bool_cond"]
    assert len(cond) == 1
    assert cond[0].weight == 2.0
    assert cond[0].clique[0].startswith("x@")


def test_fully_annotated_env_zero_variables():
    env = {"x": TypeTag.INT, "y": TypeTag.INT}
    variables, cs = TI.build_constraints(p("#eq x y"), env)
    assert variables == []
    assert cs == ()


def test_same_name_occurrences_chained():
    variables, cs = TI.build_constraints(p(r"\x. #add x (#mul x 2)"))
    binding = [f for f in cs if f.kind == "binding"]
    assert len(binding) == 1
    assert binding[0].weight == 4.0
    assert all(v.startswith("x@") for v in binding[0].clique)


def test_env_binding_bakes_fixed_tag():
    env = {"x": TypeTag.REAL}
    variables, cs = TI.build_constraints(p("#add x 1"), env)
    assert len(variables) == 1  # just the literal
    numeric = [f for f in cs if f.kind == "numeric"]
    assert numeric[0].fixed == (TypeTag.REAL,)


@pytest.mark.parametrize("clique, weight, message", [
    ((), 1.0, "factor clique must be nonempty"),
    (("a@0",), 0.0, "factor weight must be positive"),
    (("a@0",), -1.0, "factor weight must be positive"),
])
def test_factor_rejects_empty_clique_and_nonpositive_weight(clique, weight, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TI.Factor("agree", clique, weight)


def test_usage_sites_recorded():
    variables, cs = TI.build_constraints(p("#if x 1 2"), {})
    assert [f for f in cs if f.kind == "bool_cond"] == [
        TI.Factor("bool_cond", (variables[0],), TI.COND_FACTOR_WEIGHT)
    ]


# --- energy ------------------------------------------------------------------------


def test_energy_zero_when_satisfied():
    variables, cs = TI.build_constraints(p("#add x 1"))
    assignment = {v: TypeTag.INT for v in variables}
    assert TI.energy(assignment, cs) == 0.0


def test_energy_counts_single_violation():
    variables, cs = TI.build_constraints(p("#add x 1"))
    assignment = dict(zip(variables, [TypeTag.BOOL, TypeTag.BOOL]))
    # agreement holds but the shared tag is not numeric
    assert TI.energy(assignment, cs) == 1.0


def test_energy_hand_enumerated_rule_table():
    variables, cs = TI.build_constraints(p("#add x 1"))
    x, lit = variables
    assert TI.energy({x: TypeTag.BOOL, lit: TypeTag.INT}, cs) == 1.0
    assert TI.energy({x: TypeTag.REAL, lit: TypeTag.REAL}, cs) == 0.0
    assert TI.energy({x: TypeTag.INT, lit: TypeTag.REAL}, cs) == 1.0


def test_energy_missing_variable():
    variables, cs = TI.build_constraints(p("#add x 1"))
    with pytest.raises(TI.MissingVariableError):
        TI.energy({}, cs)


# --- posterior -----------------------------------------------------------------------


def test_analytic_two_candidate_softmax():
    a = {"v": TypeTag.INT}
    b = {"v": TypeTag.REAL}
    post = TI.posterior_from_energies([a, b], [0.0, math.log(2.0)], ("v",))
    assert abs(post.support[0].probability - 2.0 / 3.0) < 1e-12
    assert abs(post.support[1].probability - 1.0 / 3.0) < 1e-12


def test_equal_energies_uniform():
    cands = [{"v": t} for t in TypeTag]
    post = TI.posterior_from_energies(cands, [3.0] * 4, ("v",))
    for entry in post.support:
        assert abs(entry.probability - 0.25) < 1e-12


def test_add_literal_map_breaks_tie_to_int():
    variables, cs = TI.build_constraints(p("#add x 1"))
    post = TI.posterior(cs, variables)
    assignment = TI.map_assignment(post)
    assert all(tag is TypeTag.INT for tag in assignment.values())
    # the Real/Real assignment ties on energy but loses lexicographically
    oracle = oracle_posterior(cs, variables)
    int_combo = (TypeTag.INT, TypeTag.INT)
    real_combo = (TypeTag.REAL, TypeTag.REAL)
    assert abs(oracle[int_combo] - oracle[real_combo]) < 1e-15


def test_posterior_matches_oracle_random():
    rng = random.Random(13)
    checked = 0
    while checked < 40:
        t = gen_normalizing_term(rng, max_depth=4)
        variables, cs = TI.build_constraints(t)
        if not 1 <= len(variables) <= 4:
            continue
        post = TI.posterior(cs, variables)
        oracle = oracle_posterior(cs, variables)
        for entry in post.support:
            combo = tuple(entry.assignment[v] for v in variables)
            assert abs(entry.probability - oracle[combo]) < 1e-12
        checked += 1


def test_posterior_normalizes():
    rng = random.Random(31)
    for _ in range(30):
        t = gen_normalizing_term(rng, max_depth=4)
        variables, cs = TI.build_constraints(t)
        if not variables or len(variables) > 6:
            continue
        post = TI.posterior(cs, variables)
        assert abs(sum(e.probability for e in post.support) - 1.0) < 1e-9
        # probability ordering inverse to energy ordering
        ranked = sorted(post.support, key=lambda e: e.energy)
        probs = [e.probability for e in ranked]
        assert all(a >= b - 1e-15 for a, b in zip(probs, probs[1:]))


def test_shift_invariance():
    cands = [{"v": t} for t in TypeTag]
    energies = [0.0, 1.0, 2.5, 4.0]
    base = TI.posterior_from_energies(cands, energies, ("v",))
    shifted = TI.posterior_from_energies(cands, [e + 100.0 for e in energies], ("v",))
    for a, b in zip(base.support, shifted.support):
        assert abs(a.probability - b.probability) < 1e-9


def test_monotonicity_in_energy():
    cands = [{"v": t} for t in TypeTag]
    lo = TI.posterior_from_energies(cands, [0.0, 1.0, 1.0, 1.0], ("v",))
    hi = TI.posterior_from_energies(cands, [0.5, 1.0, 1.0, 1.0], ("v",))
    assert hi.support[0].probability < lo.support[0].probability


def test_too_many_variables_guard():
    variables = [f"v{i}" for i in range(9)]
    cs = ()
    with pytest.raises(TI.TooManyVariablesError):
        TI.posterior(cs, variables)
    # guard is configurable
    post = TI.posterior(cs, variables[:2], max_variables=2)
    assert len(post.support) == 16


# --- MAP -----------------------------------------------------------------------------


def test_map_simple_argmax():
    post = TI.posterior_from_energies(
        [{"v": TypeTag.BOOL}, {"v": TypeTag.INT}], [0.0, 2.0], ("v",)
    )
    assert TI.map_assignment(post)["v"] is TypeTag.BOOL


def test_map_tie_breaks_lexicographically():
    post = TI.posterior_from_energies(
        [{"v": TypeTag.REAL}, {"v": TypeTag.INT}], [1.0, 1.0], ("v",)
    )
    assert TI.map_assignment(post)["v"] is TypeTag.INT


def test_map_invariant_under_support_permutation():
    cands = [{"v": t} for t in TypeTag]
    energies = [2.0, 0.5, 0.5, 3.0]
    post = TI.posterior_from_energies(cands, energies, ("v",))
    perm = TI.TypePosterior(variables=("v",), support=tuple(reversed(post.support)))
    assert TI.map_assignment(post) == TI.map_assignment(perm)


def test_map_single_candidate_and_empty():
    post = TI.posterior_from_energies([{"v": TypeTag.FUNC}], [1.0], ("v",))
    assert TI.map_assignment(post)["v"] is TypeTag.FUNC
    with pytest.raises(TI.EmptyPosteriorError):
        TI.map_assignment(TI.TypePosterior(variables=(), support=()))
    with pytest.raises(TI.EmptyPosteriorError):
        TI.posterior_from_energies([], [], ())


# --- MAP by variable elimination against enumeration ----------------------------------


_WEIGHTS = (TI.ARITH_FACTOR_WEIGHT, TI.COND_FACTOR_WEIGHT, TI.BINDING_FACTOR_WEIGHT)


@st.composite
def factor_sets(draw):
    """0-8 variables, cliques of 1-2 of them, fixed tags; with `tie`, only
    agreement factors without fixed tags, so every uniform assignment
    ties at energy 0.  Weights are the module's, whose sums are exact in
    any order."""
    variables = [f"v@{i}" for i in range(draw(st.integers(0, 8)))]
    tie = draw(st.booleans())
    factors = []
    for _ in range(draw(st.integers(0, 10)) if variables else 0):
        kind = draw(st.sampled_from(("agree", "binding") if tie else ("numeric", "agree", "bool_cond", "binding")))
        size = 1 if kind == "bool_cond" else draw(st.integers(1, min(2, len(variables))))
        clique = tuple(draw(st.permutations(variables))[:size])
        fixed = () if tie or kind == "bool_cond" else tuple(draw(st.lists(st.sampled_from(TypeTag), max_size=2 - size)))
        factors.append(TI.Factor(kind, clique, draw(st.sampled_from(_WEIGHTS)), fixed))
    return tuple(factors), variables


# every assignment ties at energy 0: expect all INT
_FULL_TIE = ((), ["a@0", "b@1", "c@2"])
# the condition's Bool factor outweighs its numeric one: expect c BOOL, n INT
_BOOL_FORCED = (
    (
        TI.Factor("bool_cond", ("c@0",), TI.COND_FACTOR_WEIGHT),
        TI.Factor("numeric", ("c@0", "n@1"), TI.ARITH_FACTOR_WEIGHT),
    ),
    ["c@0", "n@1"],
)


@settings(max_examples=60, deadline=None)
@given(factor_sets())
@example(_FULL_TIE)
@example(_BOOL_FORCED)
def test_map_by_elimination_matches_enumeration(problem):
    cs, variables = problem
    assert TI.map_by_elimination(cs, variables) == TI.map_assignment(TI.posterior(cs, variables))


_NAMES = ("a@0", "b@1", "c@2")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("numeric", "agree", "bool_cond", "binding")),
       st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4),
       st.lists(st.sampled_from(TypeTag), max_size=2),
       st.one_of(st.sampled_from(_WEIGHTS), st.floats(0.001, 1e6)),
       st.randoms(use_true_random=False))
def test_factor_table_matches_violated(kind, clique, fixed, weight, rng):
    # the table comes from a pattern cached by the factor's shape: a key
    # that missed the clique's positions in its scope would hand one
    # scope order's pattern to the other
    f = TI.Factor(kind, tuple(clique), weight, tuple(fixed))
    scope = list(dict.fromkeys(clique))
    rng.shuffle(scope)
    for order in (tuple(scope), tuple(reversed(scope))):
        table = TI._factor_table(f, order)
        keys = list(itertools.product(TypeTag, repeat=len(order)))
        assert table == [f.weight * f.violated(dict(zip(order, key))) for key in keys]


def test_map_by_elimination_examples():
    assert TI.map_by_elimination(*_FULL_TIE) == {v: TypeTag.INT for v in _FULL_TIE[1]}
    assert TI.map_by_elimination(*_BOOL_FORCED) == {"c@0": TypeTag.BOOL, "n@1": TypeTag.INT}


def test_map_by_elimination_missing_variable():
    cs = (TI.Factor("agree", ("a@0", "b@1"), TI.EQ_FACTOR_WEIGHT),)
    with pytest.raises(TI.MissingVariableError):
        TI.map_by_elimination(cs, ["a@0"])


# --- specialization -----------------------------------------------------------------


def _map_for(t: L.Term, env=None) -> dict:
    variables, cs = TI.build_constraints(t, env)
    return TI.map_assignment(TI.posterior(cs, variables))


def test_specialize_add_to_int():
    t = p("#add x 1")
    out = TI.specialize_operators(t, _map_for(t))
    assert out == L.apply_spine(L.Prim("addZ"), L.Var("x"), L.IntLit(1))


def test_specialize_forced_bool_unchanged():
    t = p("#add x 1")
    variables, _ = TI.build_constraints(t)
    forced = {variables[0]: TypeTag.BOOL, variables[1]: TypeTag.INT}
    assert TI.specialize_operators(t, forced) == t


def test_specialize_real_env_to_addr():
    env = {"x": TypeTag.REAL}
    t = p("#add x 1")
    out = TI.specialize_operators(t, _map_for(t, env), env)
    assert out == L.apply_spine(L.Prim("addR"), L.Var("x"), L.IntLit(1))


def test_specialize_no_add_identity():
    t = p(r"\x. #mul x x")
    assert TI.specialize_operators(t, _map_for(t)) == t


def test_specialize_nested_adds():
    t = p(r"\x. #add x (#add x 1)")
    out = TI.specialize_operators(t, _map_for(t))
    assert "addZ" in L.pretty_print(out)
    assert "#add " not in L.pretty_print(out).replace("#addZ", "")


def test_specialization_preserves_behavior():
    rng = random.Random(97)
    checked = 0
    while checked < 25:
        t = gen_normalizing_term(rng, max_depth=4)
        out = TI.specialize_program(L.Program.of_items([(None, t)]))[0].main
        res = SK.behavioral_equal(out, t, SK.probe_tuples(L.leading_lambda_count(t), 216), fuel=50000)
        assert res.verdict is SK.Verdict.EQUAL
        checked += 1


# --- combinators are fixed function leaves -------------------------------------------


def test_combinator_alone_gives_no_variables():
    variables, cs = TI.build_constraints(L.S)
    assert variables == [] and cs == ()


def test_combinator_operand_is_a_fixed_func_tag():
    t = SK.parse_gael_program("#add K 1").main
    variables, cs = TI.build_constraints(t)
    assert variables == ["1@2"]
    assert cs == (TI.Factor("numeric", ("1@2",), TI.ARITH_FACTOR_WEIGHT, (TypeTag.FUNC,)),)
    assert TI.specialize_operators(t, {"1@2": TypeTag.INT}) == t
    assert TI.specialize_operators(L.App(L.Prim("add"), L.K), {}) == L.App(L.Prim("add"), L.K)


# --- the pipeline's per-program inference ----------------------------------------------


def test_specialize_program_types_earlier_definitions_as_functions():
    prog = L.parse_program("inc := \\x. #add x 1;\ninc 2")
    specialized, summary = TI.specialize_program(prog)
    assert specialized.defs[0][1] == L.parse_term("\\x. #addZ x 1")
    assert specialized.main == prog.main
    assert summary == {"inc": {"x@1": "INT", "1@2": "INT"}, "main": {"2@1": "INT"}}
    # a variable-free item passes through unchanged, with an empty summary
    prog = L.parse_program("inc := \\x. #add x 1;\ninc")
    specialized, summary = TI.specialize_program(prog)
    assert specialized.main == prog.main
    assert summary["main"] == {}


def test_specialize_program_specialises_a_nine_variable_chain():
    src = "#add 8 9"
    for k in range(7, 0, -1):
        src = f"#add {k} ({src})"
    prog = L.parse_program(src)
    variables, cs = TI.build_constraints(prog.main)
    assert len(variables) == 9 > TI.MAX_ENUM_VARIABLES
    specialized, summary = TI.specialize_program(prog)
    expected = TI.map_assignment(TI.posterior(cs, variables, max_variables=9))
    assert summary == {"main": {v: tag.name for v, tag in expected.items()}}
    assert "#add " not in L.pretty_print(specialized.main)
    report = CP.run_pipeline(src).report
    assert report.map_types == summary
    assert report.equivalence == "equal"


def _ladder(names: str) -> str:
    """Three copies of `names` in order under one lambda, each name's
    occurrences chained by binding factors; the copies pair neighbouring
    leaves in #add sites, the middle copy shifted by one.  Eliminating
    the last copy chains the middle one into a path, whose elimination
    then carries every name of the first copy at once."""

    def copy(offset: int) -> list[str]:
        sites = [f"(#add {a} {b})" for a, b in zip(names[offset::2], names[offset + 1::2])]
        return list(names[:offset]) + sites + ([names[-1]] if (len(names) - offset) % 2 else [])

    body, *rest = copy(0) + copy(1) + copy(0)
    for part in rest:
        body = f"(#add {body} {part})"
    return "\\" + " ".join(names) + ". " + body


def test_specialize_program_skips_a_ladder_too_wide_to_eliminate(monkeypatch):
    prog = L.parse_program(_ladder("abcdefghi"))
    assert len(TI.build_constraints(prog.main)[0]) == 27

    def no_enumeration(*args):
        raise AssertionError("a skipped item builds no table")

    # `map_by_elimination` builds its tables through `_factor_table`, which
    # runs on every call, whether its shape's pattern is cached or not
    monkeypatch.setattr(TI, "_factor_table", no_enumeration)
    monkeypatch.setattr(TI.Factor, "violated", no_enumeration)
    monkeypatch.setattr(TI, "energy", no_enumeration)
    specialized, summary = TI.specialize_program(prog)
    assert specialized == prog
    assert summary == {"main": {"_skipped": "27 variables: an elimination step spans more than 8"}}


# --- the extractor against a reference copy --------------------------------------------


@dataclass(frozen=True)
class _RefSlot:
    var: Optional[str]
    tag: Optional[TypeTag]


class _RefExtractor:
    """The two mutually recursive walks the single `walk` replaced."""

    def __init__(self, env: dict):
        self.env = env
        self.leaf_slots: list[_RefSlot] = []
        self.variables: list[str] = []
        self.groups: dict[tuple, list[str]] = {}
        self.factors: list[TI.Factor] = []
        self.lam_counter = 0

    def walk(self, t, binders):
        match t:
            case L.Lam(param, body):
                self.lam_counter += 1
                self.walk(body, ((param, self.lam_counter),) + binders)
            case L.App():
                head, args = L.spine(t)
                self._leaf_or_walk(head, binders)
                slots_before = [len(self.leaf_slots)]
                for a in args:
                    self._leaf_or_walk(a, binders)
                    slots_before.append(len(self.leaf_slots))
                if isinstance(head, L.Prim):
                    operand_slots = [
                        self.leaf_slots[slots_before[i]] if self._is_leaf(args[i]) else None
                        for i in range(len(args))
                    ]
                    self._emit_site(head.op, args, operand_slots)
            case _:
                self._leaf_or_walk(t, binders)

    def _is_leaf(self, t) -> bool:
        return isinstance(t, (L.Var, L.IntLit, L.BoolLit, L.Prim))

    def _leaf_or_walk(self, t, binders) -> None:
        if not self._is_leaf(t):
            self.walk(t, binders)
            return
        idx = len(self.leaf_slots)
        match t:
            case L.Var(name):
                bound = next((b for b in binders if b[0] == name), None)
                if bound is not None:
                    self._add_variable(name, idx, group=("lam", name, bound[1]))
                elif name in self.env:
                    self.leaf_slots.append(_RefSlot(var=None, tag=self.env[name]))
                else:
                    self._add_variable(name, idx, group=("free", name))
            case L.IntLit(v):
                self._add_variable(str(v), idx, group=None)
            case L.BoolLit(_):
                self.leaf_slots.append(_RefSlot(var=None, tag=TypeTag.BOOL))
            case L.Prim(_):
                self.leaf_slots.append(_RefSlot(var=None, tag=TypeTag.FUNC))

    def _add_variable(self, display, idx, group) -> None:
        name = f"{display}@{idx}"
        self.variables.append(name)
        self.leaf_slots.append(_RefSlot(var=name, tag=None))
        if group is not None:
            self.groups.setdefault(group, []).append(name)

    def _emit_site(self, op, args, operand_slots) -> None:
        if op in ("add", "sub", "mul") and len(args) >= 2:
            self._agreement_factor("numeric", operand_slots[:2], TI.ARITH_FACTOR_WEIGHT)
        elif op == "eq" and len(args) >= 2:
            self._agreement_factor("agree", operand_slots[:2], TI.EQ_FACTOR_WEIGHT)
        elif op == "if" and len(args) >= 3:
            cond = operand_slots[0]
            if cond is not None and cond.var is not None:
                self.factors.append(TI.Factor("bool_cond", (cond.var,), TI.COND_FACTOR_WEIGHT))

    def _agreement_factor(self, kind, slots, weight) -> None:
        present = [s for s in slots if s is not None]
        clique = tuple(s.var for s in present if s.var is not None)
        fixed = tuple(s.tag for s in present if s.var is None)
        if not clique:
            return
        if kind == "agree" and len(clique) + len(fixed) < 2:
            return
        self.factors.append(TI.Factor(kind, clique, weight, fixed))

    def finish(self) -> None:
        for members in self.groups.values():
            for a, b in zip(members, members[1:]):
                self.factors.append(TI.Factor("binding", (a, b), TI.BINDING_FACTOR_WEIGHT))


def reference_build_constraints(t, env):
    ex = _RefExtractor(env)
    ex.walk(t, ())
    ex.finish()
    return ex.variables, tuple(ex.factors)


def reference_specialize(t, assignment, env):
    ex = _RefExtractor(env)
    ex.walk(t, ())
    slots = ex.leaf_slots
    counter = itertools.count()

    def resolve(idx):
        slot = slots[idx]
        return slot.tag if slot.var is None else assignment.get(slot.var)

    def go(node):
        match node:
            case L.Lam(param, body):
                return L.Lam(param, go(body)[0]), TypeTag.FUNC
            case L.App():
                head, args = L.spine(node)
                if isinstance(head, (L.Var, L.IntLit, L.BoolLit, L.Prim)):
                    next(counter)
                    new_head = head
                else:
                    new_head, _ = go(head)
                results = [go(a) for a in args]
                new_args = [r[0] for r in results]
                tags = [r[1] for r in results]
                derived = None
                if isinstance(head, L.Prim):
                    if head.op in L.ARITH_OPS and len(args) == 2:
                        if tags[0] is TypeTag.INT and tags[1] is TypeTag.INT:
                            derived = TypeTag.INT
                        elif tags[0] is TypeTag.REAL and tags[1] is TypeTag.REAL:
                            derived = TypeTag.REAL
                        if head.op == "add" and derived is TypeTag.INT:
                            new_head = L.Prim("addZ")
                        elif head.op == "add" and derived is TypeTag.REAL:
                            new_head = L.Prim("addR")
                    elif head.op == "eq" and len(args) == 2:
                        derived = TypeTag.BOOL
                    elif head.op == "if" and len(args) == 3:
                        derived = tags[1] if tags[1] is tags[2] else None
                return L.apply_spine(new_head, *new_args), derived
            case L.IntLit() | L.Var():
                return node, resolve(next(counter))
            case L.BoolLit():
                next(counter)
                return node, TypeTag.BOOL
            case L.Prim():
                next(counter)
                return node, TypeTag.FUNC

    return go(t)[0]


# few names, so binders shadow free and environment-typed names often
_NAMES = ("x", "y", "f")
_leaves = st.one_of(
    st.sampled_from(_NAMES).map(L.Var),
    st.integers(-2, 2).map(L.IntLit),
    st.booleans().map(L.BoolLit),
    st.sampled_from(L.PRIM_OPS).map(L.Prim),
)
inference_terms = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda fa: L.App(*fa)),
        st.tuples(st.sampled_from(_NAMES), sub).map(lambda pb: L.Lam(*pb)),
        st.tuples(st.sampled_from(L.PRIM_OPS), st.lists(sub, min_size=1, max_size=3)).map(
            lambda oa: L.apply_spine(L.Prim(oa[0]), *oa[1])
        ),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(inference_terms, st.dictionaries(st.sampled_from(_NAMES), st.sampled_from(TypeTag)), st.data())
def test_extractor_matches_reference_walks(t, env, data):
    variables, cs = TI.build_constraints(t, env)
    assert (variables, cs) == reference_build_constraints(t, env)
    drawn = {v: data.draw(st.sampled_from(TypeTag), label=v) for v in variables}
    assert TI.specialize_operators(t, drawn, env) == reference_specialize(t, drawn, env)
    if len(variables) <= 5:
        assignment = TI.map_assignment(TI.posterior(cs, variables))
        ref_vars, ref_factors = reference_build_constraints(t, env)
        assert assignment == TI.map_assignment(TI.posterior(ref_factors, ref_vars))
        assert TI.specialize_operators(t, assignment, env) == reference_specialize(t, assignment, env)


# --- specialisation leaves every probe outcome unchanged ------------------------------
#
# The search probes the specialised program and verification the original;
# the two agree only if each probe of a specialised item ends as the
# original's does: the same comparison form, the same overflow value, or
# fuel running out at the same budgets.

_BUDGETS = (*range(51), L.DEFAULT_FUEL)


def _assert_probe_outcomes_kept(prog: L.Program, probes_for) -> int:
    """Check every item of `prog`; returns how many specialisation changed."""
    closed = SK.inline_ski_defs(prog)
    specialised = SK.inline_ski_defs(TI.specialize_program(prog)[0])
    changed = 0
    for name, side in closed.items():
        if specialised[name] == side:
            continue  # the same term probes the same
        changed += 1
        for tup in probes_for(L.leading_lambda_count(side)):
            for fuel in _BUDGETS:
                expected = _key_outcome(SK.comparison_form, side, tup, fuel)
                assert _key_outcome(SK.comparison_form, specialised[name], tup, fuel) == expected, (
                    name, tup, fuel)
    return changed


def test_specialisation_keeps_corpus_probe_outcomes():
    cfg = MdlConfig()
    changed = sum(_assert_probe_outcomes_kept(L.parse_program(source), cfg.probe_tuples)
                  for _, source in corpus_sources())
    assert changed >= 10


@st.composite
def arithmetic_programs(draw) -> L.Program:
    """Programs of 1-3 definitions over integer arithmetic, so that most
    items specialise: each definition takes one or two parameters, its
    body adds, multiplies, compares, branches and calls earlier
    definitions, and any subterm may be one of `inference_terms`, which
    leaves its neighbours untyped or mistyped.  Literals include
    INT64_MAX, so some probes overflow."""
    defs: list[tuple[str, L.Term, int]] = []

    def term(scope: tuple[str, ...], depth: int) -> L.Term:
        kinds = ("lit", "var", "var", "any", "arith", "arith", "if", "call")
        kind = draw(st.sampled_from(kinds[: 8 if depth else 4]))
        if kind == "var":
            return L.Var(draw(st.sampled_from(scope)))
        if kind == "any" and draw(st.booleans()):
            return draw(inference_terms)
        if kind == "arith":
            op = draw(st.sampled_from(("add", "add", "sub", "mul")))
            return L.apply_spine(L.Prim(op), term(scope, depth - 1), term(scope, depth - 1))
        if kind == "if":
            cond = L.apply_spine(L.Prim("eq"), term(scope, depth - 1), term(scope, depth - 1))
            return L.apply_spine(L.Prim("if"), cond, term(scope, depth - 1), term(scope, depth - 1))
        if kind == "call" and defs:
            name, _, arity = draw(st.sampled_from(defs))
            return L.apply_spine(L.Var(name), *(term(scope, depth - 1) for _ in range(arity)))
        return L.IntLit(draw(st.sampled_from((-2, 0, 1, 3, L.INT64_MAX))))

    for i in range(draw(st.integers(1, 3))):
        params = ("x", "y")[: draw(st.integers(1, 2))]
        body = term(params, 3)
        for param in reversed(params):
            body = L.Lam(param, body)
        defs.append((f"d{i}", body, len(params)))
    name, _, arity = defs[-1]
    main = L.apply_spine(L.Var(name), *(L.IntLit(draw(st.integers(-2, 3))) for _ in range(arity)))
    return L.Program(tuple((name, body) for name, body, _ in defs), main)


@settings(max_examples=100, deadline=None)
@given(arithmetic_programs())
def test_specialisation_keeps_probe_outcomes(prog):
    _assert_probe_outcomes_kept(prog, lambda arity: list(itertools.product((-1, 2), repeat=arity)))


# --- the MAP assignment never holds Real ------------------------------------------
# Fixed slots are only Bool or Func, so mapping every Real to Int keeps each
# factor that held and may satisfy more: the energy never rises, and Int
# sorts first.  Specialisation therefore never writes #addR itself.


def _prim_count(t: L.Term, op: str) -> int:
    if isinstance(t, L.App):
        return _prim_count(t.fun, op) + _prim_count(t.arg, op)
    if isinstance(t, L.Lam):
        return _prim_count(t.body, op)
    return t == L.Prim(op)


def _assert_no_real(prog: L.Program) -> None:
    specialised, map_types = TI.specialize_program(prog)
    assert all(tag != TypeTag.REAL.name for tags in map_types.values() for tag in tags.values()), map_types
    for (name, before), (_, after) in zip(prog.items(), specialised.items()):
        assert _prim_count(after, "addR") == _prim_count(before, "addR"), name


def test_corpus_map_assignments_hold_no_real():
    for _, source in corpus_sources():
        _assert_no_real(L.parse_program(source))


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.builds(lambda seed, n: L.parse_program(gen_chain(random.Random(seed), n)), st.integers(0, 2**16),
              st.integers(1, 10)),
    arithmetic_programs(),
))
def test_map_assignments_hold_no_real(prog):
    _assert_no_real(prog)
