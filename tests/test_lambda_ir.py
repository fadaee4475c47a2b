import dataclasses
import pickle
import random
import string
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from skic import lambda_ir as L
from skic import ski_core as SK

from conftest import (
    gen_closed_term,
    gen_normalizing_term,
    ref_eta_contract,
    ref_normalize,
    ref_read_adds,
    ref_saturate_conditionals,
)


def p(src: str) -> L.Term:
    return L.parse_term(src)


# --- parsing -----------------------------------------------------------------


def test_parse_identity():
    assert p(r"\x. x") == L.Lam("x", L.Var("x"))


def test_parse_program_with_def_and_main():
    prog = L.parse_program("add := \\x.\\y. #add x y;\nadd 2 3")
    assert [name for name, _ in prog.defs] == ["add"]
    assert prog.main == L.App(L.App(L.Var("add"), L.IntLit(2)), L.IntLit(3))


def test_parse_unbound_identifier():
    with pytest.raises(L.UnboundIdentifierError) as exc:
        p(r"\x. y")
    assert exc.value.name == "y"


def test_parse_duplicate_definition():
    with pytest.raises(L.DuplicateDefinitionError):
        L.parse_program("f := \\x. x;\nf := \\x. x;\nf 1")


def test_parse_syntax_error_has_position():
    with pytest.raises(L.ParseError) as exc:
        L.parse_program("\n\\x. (x")
    assert exc.value.line == 2


def test_parse_def_cannot_reference_itself():
    with pytest.raises(L.UnboundIdentifierError):
        L.parse_program("loop := loop; 1")


def test_parse_comments_and_multi_param_sugar():
    assert p("-- a comment\n\\x y. x") == L.Lam("x", L.Lam("y", L.Var("x")))


def test_parse_negative_literal():
    assert p("#add 1 -2") == L.apply_spine(L.Prim("add"), L.IntLit(1), L.IntLit(-2))


def test_parse_bool_keywords():
    assert p("true") == L.BoolLit(True)
    assert p("#if false 1 2") == L.apply_spine(
        L.Prim("if"), L.BoolLit(False), L.IntLit(1), L.IntLit(2)
    )


def test_parse_unknown_primitive():
    with pytest.raises(L.ParseError):
        p("#frobnicate 1")


def test_parse_integer_literal_range():
    assert p(f"#sub {L.INT64_MIN} {L.INT64_MAX}") == L.apply_spine(
        L.Prim("sub"), L.IntLit(L.INT64_MIN), L.IntLit(L.INT64_MAX)
    )
    for value in (L.INT64_MAX + 1, L.INT64_MIN - 1):
        with pytest.raises(L.ParseError) as exc:
            L.parse_program(f"#add {value} 1")
        assert str(exc.value) == f"1:6: integer literal {value} exceeds 64-bit signed range"


# --- term nodes -------------------------------------------------------------


_NODES = {
    "Var(name='x')": L.Var("x"),
    "Lam(param='x', body=Var(name='x'))": L.Lam("x", L.Var("x")),
    "App(fun=Var(name='x'), arg=IntLit(value=1))": L.App(L.Var("x"), L.IntLit(1)),
    "IntLit(value=1)": L.IntLit(1),
    "BoolLit(value=True)": L.BoolLit(True),
    "Prim(op='add')": L.Prim("add"),
    "Comb(name='S')": L.S,
}


def test_term_nodes_keep_the_frozen_dataclass_contract():
    for text, node in _NODES.items():
        fields = tuple(getattr(node, f) for f in type(node).__match_args__)
        for f in type(node).__match_args__:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, f, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, f)
        assert repr(node) == text
        assert hash(node) == hash(fields)
        assert node == type(node)(*fields) and not node != type(node)(*fields)
        assert pickle.loads(pickle.dumps(node)) == node
    assert [type(n).__match_args__ for n in _NODES.values()] == [
        ("name",), ("param", "body"), ("fun", "arg"), ("value",), ("value",), ("op",), ("name",),
    ]
    assert L.IntLit(1) != L.BoolLit(True) and L.IntLit(0) != L.BoolLit(False) and L.Var("S") != L.Comb("S")
    assert hash(L.App(L.Var("a"), L.Var("b"))) == hash((L.Var("a"), L.Var("b")))
    match L.App(L.Lam("x", L.Var("x")), L.apply_spine(L.Prim("if"), L.BoolLit(True), L.IntLit(2))):
        case L.App(L.Lam(param, L.Var(name)), L.App(L.App(L.Prim(op), L.BoolLit(b)), L.IntLit(v))):
            assert (param, name, op, b, v) == ("x", "x", "if", True, 2)
        case _:
            pytest.fail("class patterns do not match")
    with pytest.raises(ValueError, match=r"^unknown primitive #nope$"):
        L.Prim("nope")


# --- the lexer against a reference copy ---------------------------------------


_REF_PUNCT = {"source": "\\.();", "gael": "();"}
_REF_DIGITS = frozenset("0123456789")
_REF_LOWER = frozenset("abcdefghijklmnopqrstuvwxyz")
_REF_IDENT_CHARS = _REF_LOWER | _REF_DIGITS | {"_"}
_REF_PRIM_CHARS = _REF_IDENT_CHARS | frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ")


def reference_lex(source: str, dialect: str) -> list[L.Token]:
    """The character-by-character scanner the token table replaced: one
    loop per token class, line and column counted as it goes."""
    punct = _REF_PUNCT[dialect]
    combs = "SKI" if dialect == "gael" else ""
    toks: list[L.Token] = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if source.startswith("--", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith(":=", i):
            toks.append(L.Token("punct", ":=", line, col))
            i, col = i + 2, col + 2
            continue
        if c in punct:
            toks.append(L.Token("punct", c, line, col))
            i, col = i + 1, col + 1
            continue
        if c in combs:
            toks.append(L.Token("comb", c, line, col))
            i, col = i + 1, col + 1
            continue
        if c in _REF_DIGITS or (c == "-" and i + 1 < n and source[i + 1] in _REF_DIGITS):
            j = i + 1
            while j < n and source[j] in _REF_DIGITS:
                j += 1
            toks.append(L.Token("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if c == "#":
            j = i + 1
            while j < n and source[j] in _REF_PRIM_CHARS:
                j += 1
            if j == i + 1:
                raise L.ParseError("expected primitive name after '#'", line, col)
            toks.append(L.Token("prim", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _REF_LOWER:
            j = i + 1
            while j < n and source[j] in _REF_IDENT_CHARS:
                j += 1
            word = source[i:j]
            toks.append(L.Token("keyword" if word in ("true", "false") else "ident", word, line, col))
            col += j - i
            i = j
            continue
        raise L.ParseError(f"unexpected character {c!r}", line, col)
    return toks


# mostly characters some token starts with, plus every other ASCII letter
# and digit and a few characters outside both dialects
_LEX_COMMON = list("abcxyz019_-#:=\\.();SKI \t\r\n") + ["--", "true", "false"]
_LEX_ALL = list(string.ascii_letters + string.digits) + ["é", "²", "\f", "\v", "\u00a0"]
lex_texts = st.lists(
    st.one_of(st.sampled_from(_LEX_COMMON), st.sampled_from(_LEX_ALL)), max_size=30
).map("".join)


def _lex_outcome(lex, text: str, dialect: str):
    try:
        return lex(text, dialect)
    except L.ParseError as exc:
        return (exc.message, exc.line, exc.column)


@settings(max_examples=400, deadline=None)
@given(lex_texts, st.sampled_from(["source", "gael"]))
def test_lexer_matches_reference_scanner(text, dialect):
    assert _lex_outcome(L._lex, text, dialect) == _lex_outcome(reference_lex, text, dialect)


# --- beta reduction -----------------------------------------------------------


def test_beta_identity_application():
    assert SK.ski_reduce(p(r"(\x. x) 5")) == L.IntLit(5)


def test_beta_add_delta():
    assert SK.ski_reduce(p(r"(\x.\y. #add x y) 2 3")) == L.IntLit(5)


def test_omega_exhausts_fuel():
    with pytest.raises(L.FuelExhausted):
        SK.ski_reduce(p(r"(\x. x x)(\x. x x)"), fuel=1000)


@pytest.mark.parametrize(
    "src,expected",
    [
        ("#sub 10 4", L.IntLit(6)),
        ("#mul 6 7", L.IntLit(42)),
        ("#eq 3 3", L.BoolLit(True)),
        ("#eq 3 4", L.BoolLit(False)),
        ("#if true 1 2", L.IntLit(1)),
        ("#if false 1 2", L.IntLit(2)),
        ("#addZ 2 3", L.IntLit(5)),
        ("#addR 2 3", L.IntLit(5)),
    ],
)
def test_delta_rules(src, expected):
    assert SK.ski_reduce(p(src)) == expected


def test_if_leaves_branches_unevaluated():
    # the untaken branch diverges; normal order must not touch it
    src = r"#if true 7 ((\x. x x)(\x. x x))"
    assert SK.ski_reduce(p(src), fuel=100) == L.IntLit(7)


@pytest.mark.parametrize("src", [
    f"#add {L.INT64_MAX} 1", f"#addZ {L.INT64_MAX} 1", f"#sub {L.INT64_MIN} 1", f"#mul {2**62} 4",
])
def test_arithmetic_overflow_is_an_error(src):
    op = src.split()[0]
    with pytest.raises(L.EvalOverflowError, match=f"^{op} result "):
        SK.ski_reduce(p(src))


def test_stuck_primitive_is_normal():
    t = SK.ski_reduce(p(r"(\x. #add x 1) true"))
    assert t == L.apply_spine(L.Prim("add"), L.BoolLit(True), L.IntLit(1))
    assert L.is_normal_form(t)


# --- the reducer against the recursive reference (conftest.ref_normalize) --------

def _reduction_outcome(normalize, t, budget):
    """(normal form or exception class, overflow value, fuel left)."""
    fuel = L.Fuel(budget)
    try:
        return normalize(t, fuel), None, fuel.remaining
    except L.EvalOverflowError as e:
        return L.EvalOverflowError, e.value, fuel.remaining
    except L.LambdaError as e:
        return type(e), None, fuel.remaining


_NAMES = ("x", "y", "z")
_reducer_literals = st.one_of(
    st.sampled_from([-2, -1, 0, 1, 2, 2**62, L.INT64_MAX, L.INT64_MIN]).map(L.IntLit),
    st.booleans().map(L.BoolLit),
)
_reducer_leaves = st.one_of(
    st.sampled_from([L.S, L.K, L.I]),
    st.sampled_from(_NAMES).map(L.Var),
    _reducer_literals,
    st.sampled_from(L.PRIM_OPS).map(L.Prim),
)


def _lambda_chain(params, body):
    for param in reversed(params):
        body = L.Lam(param, body)
    return body

reducer_terms = st.recursive(
    _reducer_leaves,
    lambda sub: st.one_of(
        st.builds(L.App, sub, sub),
        st.builds(L.Lam, st.sampled_from(_NAMES), sub),
        st.builds(lambda head, args: L.apply_spine(head, *args),
                  st.sampled_from([L.S, L.K, L.I, *map(L.Prim, L.PRIM_OPS)]), st.lists(sub, min_size=1, max_size=4)),
        st.builds(lambda name, body, arg: L.App(L.Lam(name, body), arg), st.sampled_from(_NAMES), sub, sub),
        # a lambda chain applied to a run of literals, then maybe to other arguments
        st.builds(lambda params, body, literals, rest: L.apply_spine(_lambda_chain(params, body), *literals, *rest),
                  st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4), sub,
                  st.lists(_reducer_literals, min_size=1, max_size=4), st.lists(sub, max_size=2)),
    ),
    max_leaves=24,
)


def _nested_pair_into_beta():
    """`F2 p` where Fk = S (K Fk-1) hk: each level's S step leaves the pair
    (hk, <the level below's pair>), so \\v.\\x. v receives the nested pair
    `h (x p)`; only the inner pair holds the `x` its binder must avoid."""
    f = p(r"\v.\x. v")
    for h in ("h", "x"):
        f = L.apply_spine(L.S, L.App(L.K, f), L.Var(h))
    return L.App(f, L.Var("p"))


# each way the pair an S step leaves on the argument stack can leave it
_PAIR_EXITS = {
    # a beta step substitutes it under a binder its `y z` must avoid
    "beta": L.apply_spine(L.S, p(r"\a.\b.\x. b"), L.Var("y"), L.Var("x")),
    # it is an argument of a stuck primitive operand's head
    "operand": L.apply_spine(L.Prim("add"), L.apply_spine(L.S, L.Var("x"), L.Var("y"), L.Var("z")), L.IntLit(1)),
    # it is an argument of a stuck spine, reduced to its normal form there
    "spine": L.apply_spine(L.S, L.Var("x"), L.App(L.K, L.I), L.Var("z")),
    # a K step drops it unreduced
    "dropped": L.apply_spine(L.S, L.K, p(r"\x. x x"), p(r"\x. x x")),
    # it holds the pair of an earlier S step, and a beta step substitutes it
    "nested": _nested_pair_into_beta(),
}


@settings(max_examples=400, deadline=None)
@given(reducer_terms, st.one_of(st.integers(0, 50), st.just(L.DEFAULT_FUEL)))
@example(_PAIR_EXITS["beta"], L.DEFAULT_FUEL)
@example(_PAIR_EXITS["operand"], L.DEFAULT_FUEL)
@example(_PAIR_EXITS["spine"], L.DEFAULT_FUEL)
@example(_PAIR_EXITS["dropped"], L.DEFAULT_FUEL)
@example(_PAIR_EXITS["nested"], L.DEFAULT_FUEL)
# the delta step spends after its operands and before the range check
@example(p(f"#add {L.INT64_MAX} 1"), 0)
# the second operand reaches WHNF (and overflows) before a stuck first
# operand's body is normalised (and exhausts the fuel)
@example(p(rf"#add (\y. (\x. x x) (\x. x x)) (#add {L.INT64_MAX} 1)"), L.DEFAULT_FUEL)
def test_normalize_matches_recursive_reference(t, budget):
    try:
        expected = _reduction_outcome(ref_normalize, t, budget)
    except RecursionError:
        assume(False)  # the reference cannot decide terms nested this deep
    assert _reduction_outcome(L._normalize, t, budget) == expected


@pytest.mark.parametrize("src,expected", [
    (r"(\x.\x. x) 1 2", "2"),
    (r"(\x.\y.\x. x y) 1 2 3", "3 2"),
    (r"(\x.\y. \z. #if y x z) 1 true 2", "1"),
    (r"(\x.\y. y (\x. x) x) 1 2 3", "2 (\\x. x) 1 3"),
])
def test_consecutive_beta_steps_respect_shadowing(src, expected):
    assert L._normalize(p(src), L.Fuel(L.DEFAULT_FUEL)) == p(expected)


def test_literal_and_function_arguments_take_a_beta_step_each():
    fuel = L.Fuel(L.DEFAULT_FUEL)
    t = L.apply_spine(p(r"\x.\f.\y. f x y"), L.IntLit(1), p(r"\a.\b. #add a b"), L.IntLit(2))
    assert L._normalize(t, fuel) == L.IntLit(3)
    assert L.DEFAULT_FUEL - fuel.remaining == 6  # a beta step per lambda, then #add's step


@pytest.mark.parametrize("budget", range(5))
def test_each_beta_step_spends_one_fuel_unit(budget):
    t = p(r"(\x.\y.\z. #add x z) 1 true 2")
    outcome = _reduction_outcome(L._normalize, t, budget)
    assert outcome == _reduction_outcome(ref_normalize, t, budget)
    assert outcome == ((L.FuelExhausted, None, 0) if budget < 4 else (L.IntLit(3), None, budget - 4))


def test_deep_operand_chain_and_spine_reduce_without_recursion():
    depth = 5_000
    assert depth > sys.getrecursionlimit()
    chain = L.IntLit(0)
    for _ in range(depth):
        chain = L.apply_spine(L.Prim("add"), chain, L.IntLit(1))
    assert SK.ski_reduce(chain, fuel=depth) == L.IntLit(depth)
    spine = L.IntLit(7)
    for i in range(depth):
        spine = L.App(L.I, spine) if i % 2 else L.apply_spine(L.K, spine, L.Var("x"))
    assert SK.ski_reduce(spine, fuel=depth) == L.IntLit(7)
    # Fk = S (K Fk-1) h: `Fk p` leaves the pair nested k deep, h (h (... (h p))),
    # which the beta step of F0 = \v. v substitutes
    nested = L.Lam("v", L.Var("v"))
    for _ in range(depth):
        nested = L.apply_spine(L.S, L.App(L.K, nested), L.Var("h"))
    t = L._normalize(L.App(nested, L.Var("p")), L.Fuel(2 * depth + 1))
    for _ in range(depth):
        assert type(t) is L.App and t.fun == L.Var("h")
        t = t.arg
    assert t == L.Var("p")


def test_unbuilt_pairs_leave_the_argument_stack_only_as_terms(monkeypatch):
    """A beta step substitutes, and a stuck operand's spine holds, terms
    with no pair left inside."""
    def no_pairs(*terms):
        todo = list(terms)
        while todo:
            t = todo.pop()
            assert type(t) is not tuple
            todo += (t.fun, t.arg) if type(t) is L.App else (t.body,) if type(t) is L.Lam else ()

    substitute, apply_spine = L.substitute, L.apply_spine
    monkeypatch.setattr(L, "substitute", lambda t, name, value: no_pairs(value) or substitute(t, name, value))
    monkeypatch.setattr(L, "apply_spine", lambda *terms: no_pairs(*terms) or apply_spine(*terms))
    for t in _PAIR_EXITS.values():
        L._normalize(t, L.Fuel(L.DEFAULT_FUEL))


def test_forcing_keeps_shared_pairs_shared(monkeypatch):
    """Bk = S (S (K Bk-1)) y passes Bk-1 its argument q as the pair
    (q, (y, q)), so forcing the pair 12 levels down without sharing would
    build 8,190 applications where 24 suffice."""
    values = []
    substitute = L.substitute
    monkeypatch.setattr(L, "substitute", lambda t, name, value: values.append(value) or substitute(t, name, value))
    b = p(r"\v. 1")
    for _ in range(12):
        b = L.apply_spine(L.S, L.apply_spine(L.S, L.App(L.K, b)), L.Var("y"))
    assert L._normalize(L.App(b, L.Var("z")), L.Fuel(L.DEFAULT_FUEL)) == L.IntLit(1)
    (q,) = values
    for _ in range(12):
        assert q.fun is q.arg.arg and q.arg.fun == L.Var("y")
        q = q.fun
    assert q == L.Var("z")


# --- alpha equivalence ----------------------------------------------------------


def test_alpha_renaming():
    assert L.alpha_equivalent(p(r"\x. x"), p(r"\y. y"))


def test_alpha_distinct_binders():
    assert not L.alpha_equivalent(p(r"\x.\y. x"), p(r"\x.\y. y"))


def test_alpha_reflexive_on_random_terms():
    rng = random.Random(11)
    for _ in range(50):
        t = gen_closed_term(rng)
        assert L.alpha_equivalent(t, t)


# --- printing --------------------------------------------------------------------


def test_pretty_print_examples():
    assert L.pretty_print(L.Lam("x", L.Var("x"))) == r"\x. x"
    assert L.pretty_print(p("#add 1 2")) == "#add 1 2"
    assert L.pretty_print(p(r"\x.\y. #add x y")) == r"\x.\y. #add x y"


def test_pretty_print_left_assoc_minimal_parens():
    t = L.apply_spine(L.Var("f"), L.Var("a"), L.Var("b"))
    prog = L.Program(defs=(("f", p(r"\x. x")), ("a", L.IntLit(1)), ("b", L.IntLit(2))), main=t)
    assert L.pretty_print(t) == "f a b"
    assert L.parse_program(L.pretty_print_program(prog)).main == t


def test_pretty_print_parenthesizes_nested_arg():
    t = L.App(L.Var("f"), L.App(L.Var("g"), L.Var("x")))
    assert L.pretty_print(t) == "f (g x)"


def test_print_parse_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        t = gen_closed_term(rng)
        again = L.parse_term(L.pretty_print(t))
        assert L.alpha_equivalent(t, again)


@given(st.integers(min_value=-(2**40), max_value=2**40))
def test_int_literal_round_trip(n):
    assert L.parse_term(L.pretty_print(L.IntLit(n))) == L.IntLit(n)


def test_pretty_print_deterministic():
    t = p(r"\x.\y. #if (#eq x y) x (#add x y)")
    assert L.pretty_print(t) == L.pretty_print(t)


# --- normal forms and substitution -----------------------------------------------


def test_normal_forms_have_no_redex():
    rng = random.Random(23)
    for _ in range(100):
        t = gen_normalizing_term(rng)
        nf = SK.ski_reduce(t)
        assert L.is_normal_form(nf)


def test_capture_avoiding_substitution():
    # (\x.\y. x) y must not capture the free y
    t = L.App(p(r"\x.\y. x"), L.Var("y"))
    nf = SK.ski_reduce(t)
    assert isinstance(nf, L.Lam)
    assert nf.body == L.Var("y")
    assert nf.param != "y"


def test_inline_main_substitutes_defs():
    prog = L.parse_program("one := 1;\ninc := \\x. #add x one;\ninc 4")
    assert SK.ski_reduce(SK.inline_ski_defs(prog)[None]) == L.IntLit(5)


def test_canonical_pass_eta_contracts():
    t = L.Lam("x", L.App(L.Prim("add"), L.Var("x")))
    assert L.canonical_pass(t) == L.Prim("add")
    keeps = L.Lam("x", L.App(L.Var("x"), L.Var("x")))
    assert L.canonical_pass(keeps) == keeps


_PASS_NAMES = ("x", "y", "sat_b", "sat_b_1")
_pass_conditions = st.one_of(
    st.booleans().map(L.BoolLit),
    # an eta-redex that contracts to a literal
    st.builds(lambda b, v: L.Lam(v, L.App(L.BoolLit(b), L.Var(v))), st.booleans(), st.sampled_from(_PASS_NAMES)),
)
pass_terms = st.recursive(
    st.one_of(
        st.sampled_from(_PASS_NAMES).map(L.Var),
        st.sampled_from([0, 1]).map(L.IntLit),
        st.booleans().map(L.BoolLit),
        st.sampled_from(L.PRIM_OPS).map(L.Prim),
        st.sampled_from([L.S, L.K, L.I]),
    ),
    lambda sub: st.one_of(
        st.builds(L.App, sub, sub),
        st.builds(L.Lam, st.sampled_from(_PASS_NAMES), sub),
        st.builds(lambda v, fun: L.Lam(v, L.App(fun, L.Var(v))), st.sampled_from(_PASS_NAMES), sub),
        st.builds(lambda cond, rest: L.apply_spine(L.Prim("if"), cond, *rest), _pass_conditions,
                  st.lists(sub, max_size=1)),
    ),
    max_leaves=20,
)


@settings(max_examples=500, deadline=None)
@given(pass_terms)
# a condition that only the walk makes a literal does not saturate
@example(L.apply_spine(L.Prim("if"), L.Lam("z", L.App(L.BoolLit(True), L.Var("z"))), L.Var("x")))
# the binder avoids the walked branch's free variables, not the original's
@example(L.apply_spine(L.Prim("if"), L.BoolLit(True),
                       L.apply_spine(L.Prim("if"), L.BoolLit(False), L.Var("sat_b"))))
@example(L.apply_spine(L.Prim("if"), L.BoolLit(True), L.Var("sat_b")))
# a lambda head is saturated and contracted, a tagged head read as #add
@example(L.App(L.Lam("x", L.App(L.Prim("addZ"), L.Var("x"))), L.App(L.Prim("if"), L.BoolLit(False))))
def test_canonical_pass_matches_separate_passes(t):
    assert L.canonical_pass(t) == ref_read_adds(ref_eta_contract(ref_saturate_conditionals(t)))
