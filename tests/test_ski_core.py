import itertools
import random
import sys
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from skic import lambda_ir as L
from skic import mdl_opt as MD
from skic import metrics as M
from skic import ski_core as SK
from skic.ski_core import RuleSet, Verdict

from conftest import (gen_chain, gen_closed_term, gen_normalizing_ski, gen_normalizing_term, gen_ski_term,
                      ref_probe_key, term_size)

ALL_RULES = (RuleSet.NAIVE, RuleSet.WITH_I, RuleSet.ETA_OPTIMIZED)


def p(src: str) -> L.Term:
    return L.parse_term(src)


# --- bracket abstraction -------------------------------------------------------


def test_identity_encodes_to_i():
    assert SK.bracket_abstract(p(r"\x. x"), RuleSet.WITH_I) == SK.I


def test_identity_encodes_to_skk_under_naive():
    assert SK.bracket_abstract(p(r"\x. x"), RuleSet.NAIVE) == L.apply_spine(SK.S, SK.K, SK.K)


def test_const_encodes_to_k_under_eta():
    t = p(r"\x.\y. x")
    encoded = SK.bracket_abstract(t, RuleSet.ETA_OPTIMIZED)
    assert encoded == SK.K
    # probe-pair oracle: encoded and source agree on all probe pairs
    assert SK.behavioral_equal(encoded, t, SK.probe_tuples(2, 216)).verdict is Verdict.EQUAL


def test_eta_strictly_smaller_on_add():
    t = p(r"\x.\y. #add x y")
    naive = SK.bracket_abstract(t, RuleSet.NAIVE)
    eta = SK.bracket_abstract(t, RuleSet.ETA_OPTIMIZED)
    assert term_size(eta) < term_size(naive)
    assert SK.behavioral_equal(naive, t, SK.probe_tuples(2, 216)).verdict is Verdict.EQUAL
    assert SK.behavioral_equal(eta, t, SK.probe_tuples(2, 216)).verdict is Verdict.EQUAL


def test_open_term_is_an_error():
    with pytest.raises(SK.OpenTermError):
        SK.bracket_abstract(L.Var("x"), RuleSet.WITH_I)


def test_constants_survive_encoding():
    t = L.App(L.Var("helper"), L.IntLit(1))
    encoded = SK.bracket_abstract(t, RuleSet.ETA_OPTIMIZED, constants=frozenset({"helper"}))
    assert encoded == L.App(L.Var("helper"), L.IntLit(1))


def test_contains_walks_a_spine_past_the_recursion_limit():
    long = L.apply_spine(L.Prim("add"), *[L.IntLit(1)] * (sys.getrecursionlimit() + 500))
    assert not SK.contains(long, L.Comb)
    assert SK.contains(L.App(long, SK.K), L.Comb)
    assert SK.contains(L.apply_spine(SK.I, *[L.IntLit(1)] * (sys.getrecursionlimit() + 500)), L.Comb)
    deep = L.Var("x")
    for _ in range(sys.getrecursionlimit() + 500):
        deep = L.Lam("x", deep)
    assert SK.contains(deep, L.Var) and not SK.contains(deep, L.Comb)


def test_output_is_lambda_free():
    rng = random.Random(3)
    for _ in range(60):
        t = gen_normalizing_term(rng)
        for rules in ALL_RULES:
            assert not SK.contains(SK.bracket_abstract(t, rules), L.Lam)


def test_size_monotone_across_rule_sets():
    rng = random.Random(5)
    for _ in range(80):
        t = gen_normalizing_term(rng)
        sizes = {r: term_size(SK.bracket_abstract(t, r)) for r in ALL_RULES}
        assert sizes[RuleSet.ETA_OPTIMIZED] <= sizes[RuleSet.WITH_I] <= sizes[RuleSet.NAIVE]


def _ref_occurs(name: str, t: L.Term) -> bool:
    if isinstance(t, L.Var):
        return t.name == name
    if isinstance(t, L.App):
        return _ref_occurs(name, t.fun) or _ref_occurs(name, t.arg)
    return False


def _ref_abstract(name: str, t: L.Term, rules: RuleSet) -> L.Term:
    """Bracket abstraction that scans each application with `_ref_occurs`
    before it recurses into it, the walk `SK._abstract` replaced."""
    if rules is RuleSet.ETA_OPTIMIZED and isinstance(t, L.App):
        if isinstance(t.arg, L.Var) and t.arg.name == name and not _ref_occurs(name, t.fun):
            return t.fun
    if isinstance(t, L.Var) and t.name == name:
        return SK.I if rules in (RuleSet.WITH_I, RuleSet.ETA_OPTIMIZED) else L.apply_spine(SK.S, SK.K, SK.K)
    if not _ref_occurs(name, t):
        return L.App(SK.K, t)
    return L.apply_spine(SK.S, _ref_abstract(name, t.fun, rules), _ref_abstract(name, t.arg, rules))


def _ref_to_ski(t: L.Term, rules: RuleSet) -> L.Term:
    if isinstance(t, L.App):
        return L.App(_ref_to_ski(t.fun, rules), _ref_to_ski(t.arg, rules))
    if isinstance(t, L.Lam):
        return _ref_abstract(t.param, _ref_to_ski(t.body, rules), rules)
    return t


_ABSTRACT_NAMES = ("x", "y", "z")
abstraction_terms = st.recursive(
    st.one_of(
        st.sampled_from(_ABSTRACT_NAMES).map(L.Var),
        st.sampled_from([L.IntLit(0), L.BoolLit(True), L.Prim("add"), SK.S, SK.K, SK.I]),
    ),
    lambda sub: st.one_of(
        st.builds(L.App, sub, sub),
        st.builds(L.Lam, st.sampled_from(_ABSTRACT_NAMES), sub),
        # eta-contractible bodies, and binders no leaf can mention
        st.builds(lambda v, fun: L.Lam(v, L.App(fun, L.Var(v))), st.sampled_from(_ABSTRACT_NAMES), sub),
        st.builds(lambda body: L.Lam("w", body), sub),
    ),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(abstraction_terms)
@example(p(r"\x. #add 1 x"))
@example(p(r"\x. \y. x y y"))
@example(L.Lam("x", L.App(L.App(L.Var("x"), L.Var("y")), L.Var("x"))))
@example(L.Lam("w", L.App(SK.K, L.Var("z"))))
def test_bracket_abstract_matches_occurs_walk(t):
    for rules in ALL_RULES:
        assert SK.bracket_abstract(t, rules, constants=L.free_vars(t)) == _ref_to_ski(t, rules), rules


# --- decoding ----------------------------------------------------------------


def test_decode_definitions():
    assert L.alpha_equivalent(SK.ski_decode(SK.I), p(r"\x. x"))
    assert L.alpha_equivalent(SK.ski_decode(SK.K), p(r"\x.\y. x"))
    assert L.alpha_equivalent(SK.ski_decode(SK.S), p(r"\x.\y.\z. x z (y z)"))


def test_decode_k_applied():
    decoded = SK.ski_decode(L.App(SK.K, L.IntLit(5)))
    assert L.alpha_equivalent(decoded, p(r"(\x.\y. x) 5"))
    nf = SK.ski_reduce(decoded)
    assert isinstance(nf, L.Lam) and nf.body == L.IntLit(5)


def test_decode_consistency_on_random_terms():
    rng = random.Random(17)
    for _ in range(40):
        s = gen_normalizing_ski(rng)
        res = SK.behavioral_equal(SK.ski_decode(s), s, SK.probe_tuples(0, 216), fuel=20000)
        assert res.verdict in (Verdict.EQUAL, Verdict.UNKNOWN)
        assert res.verdict is Verdict.EQUAL


# --- reduction ----------------------------------------------------------------


def test_combinator_laws_small():
    v = L.IntLit(9)
    assert SK.ski_reduce(L.apply_spine(SK.S, SK.K, SK.K, v)) == v
    assert SK.ski_reduce(L.apply_spine(SK.K, L.IntLit(1), L.IntLit(2))) == L.IntLit(1)
    assert SK.ski_reduce(L.App(SK.I, L.IntLit(7))) == L.IntLit(7)


def test_ski_delta_rules():
    assert SK.ski_reduce(L.apply_spine(L.Prim("add"), L.IntLit(2), L.IntLit(3))) == L.IntLit(5)
    assert SK.ski_reduce(
        L.apply_spine(L.Prim("if"), L.BoolLit(False), L.IntLit(1), L.IntLit(2))
    ) == L.IntLit(2)


def test_ski_fuel_exhaustion():
    omega = L.apply_spine(SK.S, SK.I, SK.I)
    with pytest.raises(L.FuelExhausted):
        SK.ski_reduce(L.App(omega, omega), fuel=500)


def test_ski_normal_form_scan():
    rng = random.Random(29)
    for _ in range(60):
        s = gen_normalizing_ski(rng)
        assert L.is_normal_form(SK.ski_reduce(s, fuel=20000))


# --- behavioral equivalence -----------------------------------------------------


def test_skk_equals_i_over_probes():
    skk = L.apply_spine(SK.S, SK.K, SK.K)
    res = SK.behavioral_equal(skk, SK.I, [(v,) for v in range(8)])
    assert res.verdict is Verdict.EQUAL


def test_k_differs_from_i_with_first_witness():
    res = SK.behavioral_equal(SK.K, SK.I, SK.probe_tuples(2, 216))
    assert res.verdict is Verdict.DIFFERENT
    assert res.witness == (-2, -2)  # first enumerated pair


def test_probe_outcomes_fold_into_both_checks():
    probes = [(0,), (1,)]
    omega = L.parse_term(r"(\x. x x) (\x. x x)")
    assert SK.behavioral_equal(SK.I, SK.I, probes) == SK.EquivalenceResult(Verdict.EQUAL, 0.0, None)
    assert SK.behavioral_equal(SK.I, L.App(SK.K, L.IntLit(1)), probes) == SK.EquivalenceResult(
        Verdict.DIFFERENT, 0.5, (0,))
    assert SK.behavioral_equal(L.App(SK.K, omega), SK.I, probes, fuel=50) == SK.EquivalenceResult(
        Verdict.UNKNOWN, 0.5, None)
    # a disagreement wins over an earlier undecided tuple
    loops_on_0 = L.parse_term(r"\x. #if (#eq x 0) ((\y. y y) (\y. y y)) x")
    assert SK.behavioral_equal(loops_on_0, L.parse_term(r"\x. #add x 1"), probes, fuel=50) == (
        SK.EquivalenceResult(Verdict.DIFFERENT, 0.75, (1,)))
    assert SK.probe_keys(L.App(SK.K, omega), probes, fuel=50) == [((0,), None), ((1,), None)]
    assert MD.semantic_distance(SK.I, L.App(SK.K, L.IntLit(1)), probes) == 0.5


def test_overflow_is_a_probe_outcome():
    big = L.IntLit(L.INT64_MAX)
    add_big = L.apply_spine(L.Prim("add"), big)
    probes = [(1,), (-1,)]
    # both sides overflow with the same value on 1, agree on -1
    res = SK.behavioral_equal(add_big, L.apply_spine(L.Prim("addZ"), big), probes)
    assert res.verdict is Verdict.EQUAL
    # an overflow against a normal form differs
    res = SK.behavioral_equal(add_big, L.App(SK.K, big), probes)
    assert res.verdict is Verdict.DIFFERENT and res.witness == (1,)
    # two overflows with different values leave the tuple undecided
    add_double_big = L.apply_spine(L.Prim("add"), L.apply_spine(L.Prim("mul"), big, L.IntLit(2)))
    res = SK.behavioral_equal(add_big, add_double_big, [(1,)])
    assert res.verdict is Verdict.UNKNOWN
    # running out of fuel still wins over an overflow on the other side
    omega = L.parse_term(r"(\x. x x) (\x. x x)")
    res = SK.behavioral_equal(add_big, L.App(SK.K, omega), [(1,)], fuel=50)
    assert res.verdict is Verdict.UNKNOWN


def test_specialised_adds_compare_as_add():
    ident = L.parse_term(r"\z. z")
    stuck = {op: L.apply_spine(L.Prim(op), ident, L.IntLit(1)) for op in ("add", "addZ", "addR")}
    probes = SK.probe_tuples(0, 216)
    for op in ("addZ", "addR"):
        assert SK.behavioral_equal(stuck["add"], stuck[op], probes).verdict is Verdict.EQUAL
    res = SK.behavioral_equal(stuck["add"], L.apply_spine(L.Prim("sub"), ident, L.IntLit(1)), probes)
    assert res.verdict is Verdict.DIFFERENT
    assert res.witness == ()  # the arity-0 tuple, falsy but present


def test_keys_deeper_than_the_recursion_limit_compare():
    # stuck literal applications deeper than the recursion limit key
    # without recursion, and `compare_keys` compares two such keys as
    # `==` would, equal or differing only at the bottom
    def stuck(leaf: int, depth: int = 2 * sys.getrecursionlimit()) -> L.Term:
        t = L.IntLit(leaf)
        for _ in range(depth):
            t = L.App(L.IntLit(2), t)
        return t

    keys = SK.probe_keys(stuck(1), [()], 100)
    assert SK.compare_keys(keys, stuck(1), 100).verdict is Verdict.EQUAL
    assert SK.compare_keys(keys, stuck(3), 100).verdict is Verdict.DIFFERENT
    assert SK.compare_keys(keys, L.App(L.IntLit(2), stuck(1)), 100).verdict is Verdict.DIFFERENT


_KEY_NAMES = ("x", "y", "sat_b")
lambda_sides = st.recursive(
    st.one_of(
        st.sampled_from(_KEY_NAMES).map(L.Var),
        st.sampled_from([-1, 0, 1, L.INT64_MAX]).map(L.IntLit),
        st.booleans().map(L.BoolLit),
        st.sampled_from(L.PRIM_OPS).map(L.Prim),
    ),
    lambda sub: st.one_of(
        st.builds(L.App, sub, sub),
        st.builds(L.Lam, st.sampled_from(_KEY_NAMES), sub),
        st.builds(lambda v, fun: L.Lam(v, L.App(fun, L.Var(v))), st.sampled_from(_KEY_NAMES), sub),
    ),
    max_leaves=14,
)
ski_sides = st.builds(lambda t, rules: SK.bracket_abstract(t, rules, constants=L.free_vars(t)),
                      lambda_sides, st.sampled_from(ALL_RULES))


def _key_outcome(key, side, args, fuel):
    """The probe key, ("overflow", value), or FuelExhausted, which a key
    reports by raising it (the references) or returning None
    (`comparison_form`)."""
    try:
        k = key(side, args, fuel)
    except L.FuelExhausted:
        return L.FuelExhausted
    if k is None:
        return L.FuelExhausted
    return ("overflow", k.value) if isinstance(k, L.EvalOverflowError) else k


@settings(max_examples=300, deadline=None)
@given(st.one_of(lambda_sides, ski_sides))
def test_canonical_pass_returns_an_unchanged_term_itself(t):
    passed = L.canonical_pass(t)
    assert (passed is t) == (passed == t)


@settings(max_examples=300, deadline=None)
@given(st.one_of(lambda_sides, ski_sides), st.lists(st.integers(-2, 3), max_size=3).map(tuple),
       st.one_of(st.integers(0, 50), st.just(L.DEFAULT_FUEL)), st.one_of(lambda_sides, ski_sides))
# a combinator side whose result is a literal, and one whose result is a stuck application
@example(L.apply_spine(SK.K, L.App(SK.K, SK.I)), (-2, -1, 0), L.DEFAULT_FUEL, SK.K)
@example(L.apply_spine(SK.S, L.App(SK.K, SK.S), SK.K), (-2, -1, 0), L.DEFAULT_FUEL, SK.I)
# a condition that eta contracts to a literal, then fires on a fresh budget
@example(L.apply_spine(L.Prim("if"), L.Lam("z", L.App(L.BoolLit(True), L.Var("z")))), (1, 2), 1, SK.I)
@example(L.App(L.Prim("addR"), L.Var("x")), (), 0, SK.I)
@example(L.App(L.Prim("if"), L.BoolLit(False)), (0,), 0, SK.K)
# undecided on 0, different on -1 and 2
@example(L.parse_term(r"\x. #if (#eq x 0) ((\y. y y) (\y. y y)) x"), (0,), 50, L.parse_term(r"\x. #add x 1"))
def test_comparison_form_matches_separate_passes(side, args, fuel, other):
    try:
        expected = _key_outcome(ref_probe_key, side, args, fuel)
    except RecursionError:
        assume(False)  # the reference cannot walk normal forms nested this deep
    assert _key_outcome(SK.comparison_form, side, args, fuel) == expected
    # verification scores a pair of sides as the search does
    probes = list(itertools.product((-1, 0, 2), repeat=len(args)))
    verdict = SK.behavioral_equal(side, other, probes, fuel)
    assert verdict.distance == MD.semantic_distance(side, other, probes, fuel)
    assert (verdict.verdict is Verdict.EQUAL) == (verdict.distance == 0.0)
    # and folds each tuple's outcomes, computed here one tuple at a time
    agrees = [_agree(side, other, tup, fuel) for tup in probes]
    witness = next((tup for tup, agree in zip(probes, agrees) if agree is False), None)
    assert verdict.witness == witness
    if witness is not None:
        assert verdict.verdict is Verdict.DIFFERENT
    else:
        assert verdict.verdict is (Verdict.UNKNOWN if None in agrees else Verdict.EQUAL)


def _agree(side, other, args, fuel):
    """One tuple's outcome: True, False, or None where a side runs out of
    fuel (`other` unprobed if `side` does) or both overflow on different
    values."""
    ka = _key_outcome(SK.comparison_form, side, args, fuel)
    kb = L.FuelExhausted if ka is L.FuelExhausted else _key_outcome(SK.comparison_form, other, args, fuel)
    if L.FuelExhausted in (ka, kb):
        return None
    overflows = [k for k in (ka, kb) if isinstance(k, tuple) and k[0] == "overflow"]
    if len(overflows) == 2:
        return ka == kb or None
    return ka == kb


def decoded_probe_key(side: L.Term, args: tuple[int, ...], fuel: int) -> object:
    """The probe key with every reduced result decoded and normalised
    again in `canonical_normal_form`, as before combinator-free results
    went straight to `canonical_closure`."""
    applied = L.apply_spine(side, *(L.IntLit(v) for v in args))
    try:
        nf = L.canonical_normal_form(SK.ski_decode(SK.ski_reduce(applied, fuel)), fuel)
    except L.EvalOverflowError as exc:
        return exc
    return L._debruijn(nf, ())


@settings(max_examples=300, deadline=None)
@given(st.one_of(lambda_sides, ski_sides), st.lists(st.integers(-2, 3), max_size=2).map(tuple),
       st.one_of(st.integers(0, 50), st.just(L.DEFAULT_FUEL)))
@example(L.IntLit(1), (), 0)
@example(L.parse_term(r"\x. #add x 1"), (2,), 1)
@example(L.apply_spine(L.Prim("add"), L.IntLit(L.INT64_MAX)), (1,), 1)
# a function-typed parameter probed with integers: stuck literal applications
@example(p(r"\f. f 1"), (-2,), 1)
@example(p(r"\f g. f (g true)"), (1, 2), 2)
@example(p(r"\f. f f"), (3,), L.DEFAULT_FUEL)
def test_comparison_form_skips_decoding_exactly(side, args, fuel):
    # a reduced result holding no combinator is a normal form: decoding
    # leaves it as it is, and normalising it again takes no step, so it
    # cannot run out of fuel even on a budget of 0
    assert _key_outcome(SK.comparison_form, side, args, fuel) == _key_outcome(decoded_probe_key, side, args, fuel)


def test_a_stuck_literal_application_keys_without_the_canonical_passes(monkeypatch):
    def no_closure(*args):
        raise AssertionError("canonical_closure called")

    monkeypatch.setattr(L, "canonical_closure", no_closure)
    assert SK.comparison_form(p(r"\f. f 1"), (-2,), 1) == ("app", L.IntLit(-2), L.IntLit(1))
    assert SK.comparison_form(p(r"\f g. f (g true)"), (1, 2), 2) == (
        "app", L.IntLit(1), ("app", L.IntLit(2), L.BoolLit(True)))
    assert SK.comparison_form(p(r"\f. f f"), (3,), 1) == ("app", L.IntLit(3), L.IntLit(3))
    # a result holding a variable, a lambda, a primitive or a combinator
    # still goes through the passes
    for leaf in (L.Var("z"), p(r"\x. x"), L.Prim("add"), SK.K):
        with pytest.raises(AssertionError, match="canonical_closure called"):
            SK.comparison_form(L.Lam("f", L.App(L.Var("f"), leaf)), (1,), L.DEFAULT_FUEL)


def _split_then_finish(nf, n, fuel):
    """Each lane's key as `comparison_forms` built it before `_lane_keys`:
    split the normal form per lane, then finish each lane, where a literal
    was its own key and a stuck application of literals its de Bruijn form."""
    def finish(lane):
        if type(lane) in (L.IntLit, L.BoolLit):
            return lane
        if not SK.contains(lane, (L.Var, L.Lam, L.Prim, L.Comb)):
            return L._debruijn(lane, ())
        return SK._finish(lane, fuel)

    return [finish(lane) for lane in SK._lanes(nf, n)]


@st.composite
def lane_normal_forms(draw):
    """(result, lanes): a lane-valued term of the shapes a group's
    reduction leaves, built from applications over literals that are
    lane-free or hold one value per lane, and now and then a leaf or
    binder that keeps it from being a stuck application of literals."""
    n = draw(st.integers(1, 4))
    ints = st.sampled_from([-2, -1, 0, 1, 3, 6, L.INT64_MIN, L.INT64_MAX])
    leaves = [ints.map(L.IntLit), st.booleans().map(L.BoolLit)]
    if n > 1:
        leaves += [st.lists(ints, min_size=n, max_size=n).map(lambda v: L.IntLit(tuple(v))),
                   st.lists(st.booleans(), min_size=n, max_size=n).map(lambda v: L.BoolLit(tuple(v)))]
    others = [st.sampled_from(_KEY_NAMES).map(L.Var), st.sampled_from(L.PRIM_OPS).map(L.Prim),
              st.sampled_from((SK.S, SK.K, SK.I))]
    leaf = st.one_of(*leaves, *(others if draw(st.booleans()) else ()))
    binders = draw(st.booleans())
    nf = draw(st.recursive(leaf, lambda sub: st.one_of(
        st.builds(L.App, sub, sub),
        *([st.builds(L.Lam, st.sampled_from(_KEY_NAMES), sub)] if binders else []),
    ), max_leaves=12))
    return nf, n


def _outcomes(keys):
    return [("overflow", k.value) if isinstance(k, L.EvalOverflowError) else k for k in keys]


@settings(max_examples=400, deadline=None)
@given(lane_normal_forms(), st.one_of(st.integers(0, 20), st.just(L.DEFAULT_FUEL)))
@example((L.apply_spine(L.IntLit((-2, 1)), L.App(L.IntLit(3), L.IntLit((-1, 0)))), 2), L.DEFAULT_FUEL)
@example((L.IntLit((0, 1, 1)), 3), 0)
@example((L.BoolLit((True, False)), 2), 0)
@example((L.App(L.IntLit(3), L.BoolLit(True)), 3), 0)
@example((L.App(L.IntLit((1, 2)), L.Lam("x", L.Var("x"))), 2), L.DEFAULT_FUEL)
@example((L.apply_spine(SK.K, L.IntLit((1, 2)), L.IntLit(3)), 2), L.DEFAULT_FUEL)
def test_lane_keys_match_split_then_finish(case, fuel):
    nf, n = case
    keys = SK._lane_keys(nf, n, fuel)
    assert _outcomes(keys) == _outcomes(_split_then_finish(nf, n, fuel))
    # a walked result's integer keys are the shared literals of their values
    if not SK.contains(nf, (L.Var, L.Lam, L.Prim, L.Comb)):
        assert all(SK._literal(k.value) is k for k in keys if type(k) is L.IntLit)


def _chain_item(seed: int, index: int, big: bool, rules) -> L.Term:
    """A closed item of a generated definition chain, encoded under `rules`
    unless None; a `big` chain's literals are 1 and INT64_MAX, so some
    probe tuples overflow and others do not."""
    literals = ("1", str(L.INT64_MAX)) if big else ("1", "2")
    items = list(SK.inline_ski_defs(L.parse_program(gen_chain(random.Random(seed), 1 + index, literals))).values())
    return items[index] if rules is None else SK.bracket_abstract(items[index], rules)


_IF_EQ = L.parse_term(r"\x y. #if (#eq x y) ((\z. z z) (\z. z z)) (#add x y)")


@settings(max_examples=200, deadline=None)
@given(st.one_of(lambda_sides, ski_sides, st.randoms(use_true_random=False).map(gen_closed_term),
                 st.randoms(use_true_random=False).map(gen_ski_term),
                 st.builds(_chain_item, st.integers(0, 2**16), st.integers(0, 4), st.booleans(),
                           st.sampled_from((None,) + ALL_RULES))),
       st.integers(0, 3),
       st.lists(st.sampled_from((-2, -1, 0, 1, 2, 3, L.INT64_MAX, L.INT64_MIN)), min_size=1, max_size=6, unique=True),
       st.one_of(st.integers(0, 50), st.just(L.DEFAULT_FUEL)))
# an #if (#eq x y) whose lanes split, and whose x == y lanes split again
@example(L.parse_term(r"\x y. #if (#eq x y) (#if (#eq x 0) 1 2) 3"), 2, [-2, -1, 0, 1, 2, 3], L.DEFAULT_FUEL)
# some lanes overflow at #add, some of the rest at #mul, and the others finish
@example(L.parse_term(rf"\x y. #mul (#add x {L.INT64_MAX}) y"), 2, [-2, -1, 0, 1, 2, 3], L.DEFAULT_FUEL)
# fuel runs out on the split's unit, so no lane is inspected; right after
# it in every regrouped lane; and after it in the x == y lanes only
@example(_IF_EQ, 2, [-1, 0, 2], 3)
@example(_IF_EQ, 2, [-1, 0, 2], 4)
@example(_IF_EQ, 2, [-1, 0, 2], 50)
@example(L.parse_term(r"(\x. x x x) (\x. x x x)"), 1, [0, 1], L.DEFAULT_FUEL)
# results that hold no lane value and are not literals: each lane is finished
@example(L.parse_term(r"\x.\y. y"), 1, [-2, -1, 0, 1, 2, 3], L.DEFAULT_FUEL)
@example(L.App(SK.K, SK.I), 1, [-2, -1, 0, 1, 2, 3], L.DEFAULT_FUEL)
def test_comparison_forms_match_the_reference_tuple_by_tuple(side, arity, values, fuel):
    tuples = list(itertools.product(values, repeat=arity))
    try:
        expected = [_key_outcome(ref_probe_key, side, tup, fuel) for tup in tuples]
    except RecursionError:
        assume(False)  # the reference cannot walk normal forms nested this deep
    runs, reduce = [0], SK.ski_reduce

    def counted(t, budget=L.DEFAULT_FUEL):
        # a run reduces `side` applied to one literal per probe argument
        head = t
        for _ in range(arity):
            head = head.fun if type(head) is L.App else None
        runs[0] += head is side
        return reduce(t, budget)

    with mock.patch.object(SK, "ski_reduce", counted):
        keys = dict(zip(tuples, SK.comparison_forms(side, tuples, fuel)))
    assert [_key_outcome(lambda _, tup, __: keys[tup], side, tup, fuel) for tup in tuples] == expected
    # a run that splits its group leaves smaller groups
    assert 1 <= runs[0] <= 2 * len(tuples) - 1


def test_encode_equal_for_all_rule_sets_random():
    rng = random.Random(41)
    for _ in range(30):
        t = gen_normalizing_term(rng)
        probes = SK.probe_tuples(L.leading_lambda_count(t), 216)
        for rules in ALL_RULES:
            res = SK.behavioral_equal(SK.bracket_abstract(t, rules), t, probes, fuel=50000)
            assert res.verdict is Verdict.EQUAL, (L.pretty_print(t), rules)


@st.composite
def literal_applications(draw) -> tuple[L.Term, tuple[int, ...]]:
    """A closed term with 0-3 leading lambdas and integer arguments for them.

    Bodies mix arithmetic, equality, conditionals, redexes whose binder may
    go unused, and a function passed to a function; all leaves are
    integers, so the applied term usually normalises to a literal.
    """
    def term(scope: tuple[str, ...], depth: int) -> L.Term:
        kind = draw(st.sampled_from(("lit", "var", "arith", "eq", "if", "let", "apply")
                                    [: 7 if depth else 2]))
        if kind == "var" and scope:
            return L.Var(draw(st.sampled_from(scope)))
        if kind == "arith":
            op = draw(st.sampled_from(("add", "sub", "mul")))
            return L.apply_spine(L.Prim(op), term(scope, depth - 1), term(scope, depth - 1))
        if kind == "eq":
            return L.apply_spine(L.Prim("eq"), term(scope, depth - 1), term(scope, depth - 1))
        if kind == "if":
            cond = L.apply_spine(L.Prim("eq"), term(scope, depth - 1), term(scope, depth - 1))
            return L.apply_spine(L.Prim("if"), cond, term(scope, depth - 1), term(scope, depth - 1))
        if kind == "let":
            v = f"v{len(scope)}"
            return L.App(L.Lam(v, term(scope + (v,), depth - 1)), term(scope, depth - 1))
        if kind == "apply":
            v = f"v{len(scope)}"
            return L.App(L.Lam("f", L.App(L.Var("f"), term(scope, depth - 1))),
                         L.Lam(v, term(scope + (v,), depth - 1)))
        return L.IntLit(draw(st.integers(-2, 3)))

    params = tuple(f"x{i}" for i in range(draw(st.integers(0, 3))))
    body = term(params, 4)
    for param in reversed(params):
        body = L.Lam(param, body)
    return body, tuple(draw(st.integers(-2, 3)) for _ in params)


@settings(deadline=None)
@given(literal_applications())
def test_ski_reduce_of_encoding_matches_beta_reduce(case):
    # a literal oracle: no comparison_form, no alpha equivalence
    t, args = case
    literals = [L.IntLit(a) for a in args]
    try:
        expected = SK.ski_reduce(L.apply_spine(t, *literals))
    except (L.FuelExhausted, L.EvalOverflowError):
        expected = None
    assume(isinstance(expected, (L.IntLit, L.BoolLit)))
    for rules in ALL_RULES:
        encoded = L.apply_spine(SK.bracket_abstract(t, rules), *literals)
        assert SK.ski_reduce(encoded, fuel=100_000) == expected, (L.pretty_print(t), args, rules)


def test_probe_cap_and_arity_zero():
    assert SK.probe_tuples(0, 216) == [()]
    assert len(SK.probe_tuples(3, 216)) == 216
    assert SK.probe_tuples(4, 216)[-1] == (-2, 3, 3, 3)  # capped, in lexicographic order


# --- GAEL text --------------------------------------------------------------------


def test_gael_print_examples():
    assert L.pretty_print(SK.I) == "I"
    assert L.pretty_print(L.apply_spine(SK.S, SK.K, SK.K)) == "S K K"
    assert L.pretty_print(L.App(SK.S, L.App(SK.K, SK.I))) == "S (K I)"


_GAEL_LEAVES = st.one_of(
    st.sampled_from([SK.S, SK.K, SK.I, L.BoolLit(True), L.BoolLit(False), *map(L.Prim, L.PRIM_OPS)]),
    st.sampled_from([L.INT64_MIN, L.INT64_MAX, -1, -42, 0, 7]).map(L.IntLit),
    st.integers(L.INT64_MIN, -1).map(L.IntLit),
    st.integers(0, 11).map(lambda i: L.Var(f"q{i}")),
)


@st.composite
def gael_programs(draw) -> L.Program:
    """Lambda-free programs of 0-4 definitions whose leaves are the
    combinators, every primitive, the booleans, negative and extreme
    integers, `qN` names and earlier definitions' names, with arguments
    nested in arguments."""
    defs: list[tuple[str, L.Term]] = []

    def term() -> L.Term:
        leaves = st.one_of(_GAEL_LEAVES, *([st.sampled_from([L.Var(n) for n, _ in defs])] if defs else []))
        return draw(st.recursive(leaves, lambda sub: st.builds(L.App, sub, sub), max_leaves=16))

    for i in range(draw(st.integers(0, 4))):
        defs.append((draw(st.sampled_from(["d", "sq_", "main"])) + str(i), term()))
    return L.Program(tuple(defs), term() if draw(st.booleans()) else None)


@settings(deadline=None)
@given(gael_programs())
@example(L.Program((), None))
@example(L.Program((("d0", SK.I),), L.App(L.Var("d0"), L.App(L.IntLit(L.INT64_MIN), L.App(SK.K, L.BoolLit(True))))))
def test_gael_program_tokens_match_the_lexer(prog):
    assert SK.gael_program_tokens(prog) == M.token_count(SK.gael_print_program(prog), "gael")


def test_gael_parse_round_trip_random():
    rng = random.Random(59)
    for _ in range(150):
        s = gen_ski_term(rng)
        assert SK.parse_gael_program(L.pretty_print(s)).main == s


def test_gael_program_round_trip():
    prog = L.Program(
        defs=(("q0", L.apply_spine(SK.S, SK.K, SK.K)),),
        main=L.App(L.Var("q0"), L.IntLit(5)),
    )
    text = SK.gael_print_program(prog)
    assert SK.parse_gael_program(text) == prog
    assert SK.ski_reduce(SK.inline_ski_defs(prog)[None]) == L.IntLit(5)


def test_gael_parse_errors_match_source_parser():
    with pytest.raises(L.ParseError) as exc:
        SK.parse_gael_program("S (K")
    assert str(exc.value) == "1:5: unexpected end of input"
    with pytest.raises(L.ParseError) as exc:
        SK.parse_gael_program("S #")
    assert str(exc.value) == "1:3: expected primitive name after '#'"


@pytest.mark.parametrize("source,message", [
    ("#add 1 \u00b2", "1:8: unexpected character '\u00b2'"),
    ("caf\u00e9 := 1;\ncaf\u00e9", "1:4: unexpected character '\u00e9'"),
])
@pytest.mark.parametrize("parse", [L.parse_program, SK.parse_gael_program])
def test_lexer_character_classes_are_ascii(parse, source, message):
    with pytest.raises(L.ParseError) as exc:
        parse(source)
    assert str(exc.value) == message


def test_gael_integer_literal_range():
    term = SK.parse_gael_program(f"K {L.INT64_MIN} {L.INT64_MAX}").main
    assert term == L.apply_spine(SK.K, L.IntLit(L.INT64_MIN), L.IntLit(L.INT64_MAX))
    for value in (L.INT64_MAX + 1, L.INT64_MIN - 1):
        with pytest.raises(L.ParseError) as exc:
            SK.parse_gael_program(f"K {value}")
        assert str(exc.value) == f"1:3: integer literal {value} exceeds 64-bit signed range"


# --- closing programs -----------------------------------------------------------

# binder names include definition names, so some binders shadow a definition
_BINDERS = ("x", "y", "d0", "d1", "d2")


@st.composite
def source_programs(draw) -> L.Program:
    """Closed programs of 0-4 definitions whose bodies refer to earlier ones."""
    defs: list[tuple[str, L.Term]] = []

    def term(scope: frozenset[str], depth: int) -> L.Term:
        visible = sorted(scope | {name for name, _ in defs})
        kind = draw(st.sampled_from(("lit", "var", "lam", "app")[: 4 if depth else 2]))
        if kind == "var" and visible:
            return L.Var(draw(st.sampled_from(visible)))
        if kind == "lam":
            param = draw(st.sampled_from(_BINDERS))
            return L.Lam(param, term(scope | {param}, depth - 1))
        if kind == "app":
            return L.App(term(scope, depth - 1), term(scope, depth - 1))
        return L.IntLit(draw(st.integers(-2, 3)))

    for i in range(draw(st.integers(0, 4))):
        defs.append((f"d{i}", term(frozenset(), 4)))
    main = term(frozenset(), 4) if draw(st.booleans()) else None
    return L.Program(tuple(defs), main)


def _close_by_substitution(prog: L.Program) -> dict:
    """Reference closer: fold capture-avoiding substitution over the items."""
    closed: dict = {}
    for name, body in prog.items():
        for dep, val in closed.items():
            body = L.substitute(body, dep, val)
        closed[name] = body
    return closed


@settings(deadline=None)
@given(source_programs())
def test_inline_ski_defs_matches_capture_avoiding_substitution(prog):
    assert SK.inline_ski_defs(prog) == _close_by_substitution(prog)


def test_inline_ski_defs_respects_shadowing():
    prog = L.parse_program("one := 1;\n(\\one. one) one")
    assert SK.inline_ski_defs(prog) == {"one": L.IntLit(1), None: p("(\\one. one) 1")}


# --- documented fixture ---------------------------------------------------------


def test_appendix_fixture_is_not_addition():
    # S (I) (S (K) (I)) applied to integers is a stuck self-application,
    # not two-argument addition; pinned here as observed behavior.
    fixture = L.apply_spine(SK.S, SK.I, L.apply_spine(SK.S, SK.K, SK.I))
    applied = L.apply_spine(fixture, L.IntLit(2), L.IntLit(3))
    reduced = SK.ski_reduce(applied)
    assert reduced == L.apply_spine(L.IntLit(2), L.IntLit(2), L.IntLit(3))
    assert reduced != L.IntLit(5)
