"""SKI combinator encoding, decoding, probing, and GAEL text.

Combinator terms are the lambda-free terms of `lambda_ir`, with S, K
and I as constants.  Bracket abstraction eliminates every lambda
binder, producing terms over S, K, I, literals, primitives, and free
references.  The GAEL textual form prints combinator terms as
left-associative juxtaposition:

    gdef  := ident ":=" gterm ";"
    gterm := gatom+
    gatom := "S" | "K" | "I" | integer | "true" | "false"
           | "#"primname | ident | "(" gterm ")"
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from . import lambda_ir
from .lambda_ir import (
    DEFAULT_FUEL,
    App,
    BoolLit,
    Comb,
    Fuel,
    FuelExhausted,
    I,
    IntLit,
    K,
    Lam,
    Program,
    S,
    Term,
    Var,
    apply_spine,
)


class OpenTermError(Exception):
    def __init__(self, names: frozenset[str]):
        super().__init__(f"term has free variables: {', '.join(sorted(names))}")
        self.names = names


class RuleSet(Enum):
    """Bracket-abstraction rule sets, ordered by rule coverage."""

    NAIVE = "naive"  # S/K only: [x]x = S K K
    WITH_I = "i"  # adds the I rule: [x]x = I
    ETA_OPTIMIZED = "eta"  # adds eta-contraction: [x](M x) = M when x not in M


def contains(t: Term, kind: type | tuple[type, ...]) -> bool:
    """Structural scan for a node of a class in `kind`, as isinstance
    reads it, in one iterative walk; GAEL terms hold no Lam."""
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, kind):
            return True
        if type(t) is App:
            todo += t.arg, t.fun
        elif type(t) is Lam:
            todo.append(t.body)
    return False


# --- encoding (bracket abstraction) -----------------------------------


def _abstract(name: str, t: Term, rules: RuleSet) -> Optional[Term]:
    """[name] t for a lambda-free term, in one walk, or None where Var(name)
    does not occur in t (the caller writes K t)."""
    if isinstance(t, Var) and t.name == name:
        return I if rules in (RuleSet.WITH_I, RuleSet.ETA_OPTIMIZED) else apply_spine(S, K, K)
    if not isinstance(t, App):
        return None
    fun, arg = _abstract(name, t.fun, rules), _abstract(name, t.arg, rules)
    if fun is None and arg is None:
        return None
    if fun is None and rules is RuleSet.ETA_OPTIMIZED and isinstance(t.arg, Var):
        return t.fun  # [x](M x) = M: t.arg holds x, so it is Var(name)
    return apply_spine(S, App(K, t.fun) if fun is None else fun, App(K, t.arg) if arg is None else arg)


def _to_ski(t: Term, rules: RuleSet) -> Term:
    if isinstance(t, App):
        return App(_to_ski(t.fun, rules), _to_ski(t.arg, rules))
    if isinstance(t, Lam):
        body = _to_ski(t.body, rules)
        abstracted = _abstract(t.param, body, rules)
        return App(K, body) if abstracted is None else abstracted
    return t


def bracket_abstract(
    t: Term, rules: RuleSet = RuleSet.ETA_OPTIMIZED, constants: frozenset[str] = frozenset()
) -> Term:
    """Encode a lambda term as a lambda-free combinator term.

    `constants` names stay as free references (definition names the
    surrounding program will resolve).  Any other free variable is an
    error.
    """
    stray = lambda_ir.free_vars(t) - constants
    if stray:
        raise OpenTermError(stray)
    return _to_ski(t, rules)


# --- decoding ----------------------------------------------------------

_COMB_LAMBDAS = {
    "S": lambda_ir.parse_term("\\x.\\y.\\z. x z (y z)"),
    "K": lambda_ir.parse_term("\\x.\\y. x"),
    "I": lambda_ir.parse_term("\\x. x"),
}


def ski_decode(t: Term) -> Term:
    """Replace combinators by their lambda definitions, keeping structure."""
    if isinstance(t, App):
        return App(ski_decode(t.fun), ski_decode(t.arg))
    if isinstance(t, Lam):
        return Lam(t.param, ski_decode(t.body))
    if isinstance(t, Comb):
        return _COMB_LAMBDAS[t.name]
    return t


# --- reduction ----------------------------------------------------------


def ski_reduce(t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """Normal-order rewriting to normal form.

    S x y z -> x z (y z); K x y -> x; I x -> x; plus beta and the
    primitive delta rules.  Raises FuelExhausted when the budget runs
    out.
    """
    return lambda_ir._normalize(t, Fuel(fuel))


# --- behavioral equivalence ---------------------------------------------


PROBE_VALUES = (-2, -1, 0, 1, 2, 3)


def probe_tuples(arity: int, limit: int) -> list[tuple[int, ...]]:
    """The probe set: the first `limit` arity-fold tuples over
    `PROBE_VALUES`, in lexicographic order; it is never empty."""
    if arity < 0:
        raise ValueError("probe arity must be nonnegative")
    if limit < 1:
        raise ValueError("probe tuple count must be positive")
    return list(itertools.islice(itertools.product(PROBE_VALUES, repeat=arity), limit))


class Verdict(Enum):
    EQUAL = "equal"
    DIFFERENT = "different"
    UNKNOWN = "unknown"


# a probe tuple's distance: agree 0, disagree 1, undecided 0.5
PENALTY = {True: 0.0, False: 1.0, None: 0.5}


@dataclass(frozen=True)
class EquivalenceResult:
    verdict: Verdict
    distance: float  # the mean PENALTY over the probe tuples
    witness: Optional[tuple[int, ...]] = None


# one literal per integer, shared by the probe arguments and the keys of
# `_lane_keys`' walk, so equal integer keys are one object (`compare_keys`)
_literal = functools.cache(IntLit)


def comparison_form(side: Term, args: tuple[int, ...], fuel: int) -> object:
    """What one probe of `side` compares by: the de Bruijn form of the
    applied side's canonical normal form, so results compare up to alpha,
    the EvalOverflowError its reduction raises, or None if the side runs
    out of fuel first.  `comparison_forms` of the one tuple."""
    return comparison_forms(side, [args], fuel)[0]


def comparison_forms(side: Term, tuples: list[tuple[int, ...]], fuel: int) -> list:
    """`comparison_form` of `side` on each of `tuples`, reducing it once
    per group of tuples run as lanes: each argument literal holds every
    lane's value (`lambda_ir._normalize`).  Where an `#if` or an overflow
    tells lanes apart, the run stops; overflowing lanes settle as their
    own EvalOverflowError, and the rest regroup and run again from the
    start.  Groups only shrink, so n tuples take at most 2n - 1 runs, and
    a group of one is a plain reduction.  Each normal form gives every
    lane's key at once (`_lane_keys`)."""
    keys: list = [None] * len(tuples)
    groups = [range(len(tuples))] if tuples else []
    while groups:
        group = groups.pop()
        columns = zip(*(tuples[i] for i in group))
        args = (_literal(c[0]) if c.count(c[0]) == len(c) else IntLit(c) for c in columns)
        try:
            nf = ski_reduce(apply_spine(side, *args), fuel)
        except lambda_ir.LanesDiverge as split:
            op, values = split.args
            parts: dict[bool, list[int]] = {}
            for i, v in zip(group, values):
                if op != "if" and not lambda_ir.INT64_MIN <= v <= lambda_ir.INT64_MAX:
                    keys[i] = lambda_ir.EvalOverflowError(op, v)
                else:
                    parts.setdefault(op == "if" and v, []).append(i)
            groups += parts.values()
            continue
        except lambda_ir.EvalOverflowError as exc:  # at a value every lane shares
            for i in group:
                keys[i] = exc
            continue
        except FuelExhausted:
            continue
        for i, k in zip(group, _lane_keys(nf, len(group), fuel)):
            keys[i] = k
    return keys


def _lane_keys(nf: Term, n: int, fuel: int) -> list:
    """The keys of a normal form's `n` lanes.  A result built only from
    applications and literals is closed, binder-free and normal, so the
    passes of `_finish` would leave each lane as it is: one iterative
    post-order walk keys all lanes at once, as the de Bruijn form
    `("app", f, a)` with its literals as leaves, each `IntLit` the shared
    `_literal` of its lane's value, and a subkey holding no lane value
    shared by every lane.  A result holding a `Var`, `Lam`, `Prim` or
    `Comb` is split (`_lanes`) and each lane finished (`_finish`)."""
    todo, built = [nf], []  # built: a subterm's key, or the list of its n lanes' keys
    while todo:
        t = todo.pop()
        if type(t) is App:
            todo += None, t.arg, t.fun  # None: both parts are keyed
        elif t is None:
            (f, a), built[-2:] = built[-2:], []
            if type(f) is list or type(a) is list:
                cols = zip(f if type(f) is list else [f] * n, a if type(a) is list else [a] * n)
                built.append([("app", *fa) for fa in cols])
            else:
                built.append(("app", f, a))
        elif type(t) is IntLit:
            built.append([*map(_literal, t.value)] if type(t.value) is tuple else _literal(t.value))
        elif type(t) is BoolLit:
            built.append([*map(BoolLit, t.value)] if type(t.value) is tuple else t)
        else:
            return [_finish(lane, fuel) for lane in _lanes(nf, n)]
    return built[0] if type(built[0]) is list else [built[0]] * n


def _lanes(t: Term, n: int) -> list[Term]:
    """`t` in each of its `n` lanes, `t` itself n times if it holds no lane
    value: one iterative post-order walk, where a lane literal reads its
    lane's value and a subterm holding none stays itself.  Only results
    that `_lane_keys` cannot key in its walk are split."""
    todo, built = [t], []  # built: a subterm, or the list of its n lanes
    while todo:
        t = todo.pop()
        if type(t) is App or type(t) is Lam:
            todo += (t,), *((t.arg, t.fun) if type(t) is App else (t.body,))
        elif type(t) is tuple:  # a node whose parts are built
            node, k = t[0], 2 if type(t[0]) is App else 1
            parts, built[-k:] = built[-k:], []
            if any(type(p) is list for p in parts):
                cols = zip(*(p if type(p) is list else [p] * n for p in parts))
                node = [App(*ps) if k == 2 else Lam(node.param, *ps) for ps in cols]
            built.append(node)
        else:
            built.append([*map(type(t), t.value)] if type(t) in lambda_ir._LITERALS and type(t.value) is tuple else t)
    return built[0] if type(built[0]) is list else [built[0]] * n


def _finish(nf: Term, fuel: int) -> object:
    """`comparison_form`'s key for one lane of a reduced result holding a
    `Var`, `Lam`, `Prim` or `Comb` (`_lane_keys` keys the rest).  A
    result still holding a combinator is decoded and reduced again, so
    every result reaches `lambda_ir.canonical_closure` in beta-delta
    normal form."""
    try:
        if contains(nf, Comb):
            nf = ski_reduce(ski_decode(nf), fuel)
        nf = lambda_ir.canonical_closure(nf, fuel)
    except lambda_ir.EvalOverflowError as exc:
        return exc
    except FuelExhausted:
        return None
    return lambda_ir._debruijn(nf, ())


ProbeKeys = list[tuple[tuple[int, ...], object]]


def probe_keys(side: Term, tuples: list[tuple[int, ...]], fuel: int) -> ProbeKeys:
    """(tuple, `comparison_form` key) per probe tuple."""
    return list(zip(tuples, comparison_forms(side, tuples, fuel)))


def compare_keys(keys: ProbeKeys, other: Term, fuel: int) -> EquivalenceResult:
    """`other` against one side's `probe_keys`, in tuple order.

    A tuple agrees where `other` reaches the same key.  It is undecided
    where either side runs out of fuel (`other` is probed only where the
    first side's key is not None), and where both overflow on different
    values: which redex overflows first follows a side's own reduction
    order.  The distance is the mean `PENALTY` over the tuples;
    `different` carries the first disagreeing tuple; `unknown` means some
    tuple was undecided and none disagreed.
    """
    penalty, witness, undecided = 0.0, None, False
    other_keys = iter(comparison_forms(other, [tup for tup, ka in keys if ka is not None], fuel))
    for tup, ka in keys:
        kb = None if ka is None else next(other_keys)
        if ka is None or kb is None:
            agree = None
        elif ka is kb:
            agree = True
        elif isinstance(ka, lambda_ir.EvalOverflowError) and isinstance(kb, lambda_ir.EvalOverflowError):
            agree = ka.value == kb.value or None
        else:
            try:
                agree = ka == kb
            except RecursionError:  # keys nested deeper than the recursion limit
                agree = _keys_equal(ka, kb)
        penalty += PENALTY[agree]
        if agree is False and witness is None:
            witness = tup
        undecided = undecided or agree is None
    if witness is not None:
        verdict = Verdict.DIFFERENT
    else:
        verdict = Verdict.UNKNOWN if undecided else Verdict.EQUAL
    return EquivalenceResult(verdict, penalty / len(keys), witness)


def _keys_equal(a: object, b: object) -> bool:
    """`a == b` on two keys, whose nested tuples are walked with a stack."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if type(a) is tuple and type(b) is tuple:
            if len(a) != len(b):
                return False
            todo += zip(a, b)
        elif a != b:  # a leaf, or a tuple against a leaf
            return False
    return True


def behavioral_equal(
    a: Term, b: Term, tuples: list[tuple[int, ...]], fuel: int = DEFAULT_FUEL
) -> EquivalenceResult:
    """`compare_keys` of `a`'s keys against `b`: every tuple of `a` is
    probed before `b`'s first, and every tuple is probed, a `different`
    one's later tuples too, since `distance` scores them all."""
    return compare_keys(probe_keys(a, tuples, fuel), b, fuel)


# --- GAEL text ----------------------------------------------------------


def gael_tokens(t: Term) -> int:
    """The GAEL token count of `t`'s printed text, without printing it:
    one token per leaf and two parentheses per argument that is an
    application.  A lambda is not GAEL: ValueError."""
    count, todo = 0, [t]
    while todo:
        t = todo.pop()
        if type(t) is App:
            todo += t.fun, t.arg
            count += 2 * (type(t.arg) is App)
        elif type(t) is Lam:
            raise ValueError("a GAEL term holds no lambda")
        else:
            count += 1
    return count


def gael_program_tokens(prog: Program) -> int:
    """`gael_tokens` of `gael_print_program(prog)`: each definition adds
    its name, `:=` and `;`."""
    return sum(gael_tokens(body) for _, body in prog.items()) + 3 * len(prog.defs)


def gael_print_program(prog: Program) -> str:
    return lambda_ir.pretty_print_program(prog)


def parse_gael_program(source: str) -> Program:
    """Parse GAEL text into a Program; every identifier is a free reference."""
    return lambda_ir._Parser(lambda_ir._lex(source, "gael"), allow_free=True).parse_program()


def substitute_free(t: Term, env: Mapping[Optional[str], Term]) -> Term:
    """t with each free name in `env` replaced by its closed value, in one
    walk (`lambda_ir.substitute_closed`)."""
    return lambda_ir.substitute_closed(t, env)


def inline_ski_defs(prog: Program) -> dict[Optional[str], Term]:
    """Every item of a source or encoded program (main under None) with
    each earlier definition substituted in.  Items close in order, so the
    definition bodies substituted are already closed; an item refers only
    to earlier definitions."""
    closed: dict[Optional[str], Term] = {}
    for name, body in prog.items():
        closed[name] = substitute_free(body, closed)
    return closed
