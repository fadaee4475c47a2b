"""Shared fixtures: seeded term generators and corpus location."""

from __future__ import annotations

import operator
import random
from pathlib import Path

import pytest

from skic import lambda_ir as L
from skic import ski_core as SK

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS_DIR


def corpus_sources() -> list[tuple[str, str]]:
    return [
        (p.stem, p.read_text(encoding="utf-8"))
        for p in sorted(CORPUS_DIR.glob("*.lam"), key=lambda p: p.name)
    ]


def term_size(t: L.Term) -> int:
    """Node count: one per application, lambda and leaf."""
    if isinstance(t, L.App):
        return 1 + term_size(t.fun) + term_size(t.arg)
    if isinstance(t, L.Lam):
        return 1 + term_size(t.body)
    return 1


# --- closed lambda-term generator ------------------------------------------


def gen_closed_term(rng: random.Random, max_depth: int = 6) -> L.Term:
    """Random closed term of depth <= max_depth; may be stuck or
    divergent — callers filter."""

    def go(depth: int, scope: tuple[str, ...]) -> L.Term:
        if depth <= 0:
            return _leaf(rng, scope)
        roll = rng.random()
        if roll < 0.30:
            name = f"v{len(scope)}"
            return L.Lam(name, go(depth - 1, scope + (name,)))
        if roll < 0.45:
            return L.App(go(depth - 1, scope), go(depth - 1, scope))
        if roll < 0.65:
            op = rng.choice(["add", "sub", "mul"])
            return L.apply_spine(L.Prim(op), go(depth - 1, scope), go(depth - 1, scope))
        if roll < 0.75:
            return L.apply_spine(L.Prim("eq"), go(depth - 1, scope), go(depth - 1, scope))
        if roll < 0.85:
            cond = L.apply_spine(L.Prim("eq"), go(depth - 2, scope), go(depth - 2, scope))
            return L.apply_spine(L.Prim("if"), cond, go(depth - 1, scope), go(depth - 1, scope))
        return _leaf(rng, scope)

    def _leaf(rng: random.Random, scope: tuple[str, ...]) -> L.Term:
        if scope and rng.random() < 0.6:
            return L.Var(rng.choice(scope))
        if rng.random() < 0.1:
            return L.BoolLit(rng.random() < 0.5)
        return L.IntLit(rng.randint(-3, 4))

    # a small lambda prefix gives probing something to feed; the prefix
    # spends depth budget so the whole term stays within max_depth
    wrappers = rng.randint(0, 2)
    body = go(max_depth - 1 - wrappers, ())
    for i in range(wrappers):
        body = L.Lam(f"w{i}", body)
    return body


def gen_mixed_term(rng: random.Random, max_depth: int = 6) -> L.Term:
    """`gen_closed_term` with some of its subterms and about a third of
    its leaves replaced by S, K or I: lambdas and combinators mixed, a
    combinator heading or filling an application, ending a lambda body
    or standing alone."""

    def mix(t: L.Term) -> L.Term:
        if rng.random() < 0.1:
            return rng.choice((SK.S, SK.K, SK.I))
        if isinstance(t, L.App):
            return L.App(mix(t.fun), mix(t.arg))
        if isinstance(t, L.Lam):
            return L.Lam(t.param, mix(t.body))
        return rng.choice((SK.S, SK.K, SK.I)) if rng.random() < 0.3 else t

    return mix(gen_closed_term(rng, max_depth))


def gen_normalizing_term(rng: random.Random, max_depth: int = 6, fuel: int = 5000) -> L.Term:
    """Closed term whose full normal form exists within `fuel` steps."""
    while True:
        t = gen_closed_term(rng, max_depth)
        try:
            SK.ski_reduce(t, fuel)
        except (L.FuelExhausted, L.EvalOverflowError):
            continue
        return t


def gen_chain(rng: random.Random, n: int, literals: tuple[str, str] = ("1", "2")) -> str:
    """A chain of n one- and two-argument definitions, each over earlier
    ones and two literals, and a main that applies the last."""
    lines, arities = [], []
    for k in range(n):
        arity = rng.choice((1, 1, 2))
        params = ["x", "y"][:arity]

        def operand() -> str:
            if arities and rng.random() < 0.6:
                j = rng.randrange(len(arities))
                return f"(d{j} {' '.join(rng.choice(params) for _ in range(arities[j]))})"
            return rng.choice(params + list(literals))

        op = rng.choice(("add", "mul", "sub"))
        lines.append(f"d{k} := \\{' '.join(params)}. #{op} {operand()} {operand()};")
        arities.append(arity)
    return "\n".join(lines) + f"\nd{n - 1} {' '.join(['3'] * arities[-1])}"


# --- combinator-term generators ---------------------------------------------


def gen_ski_term(rng: random.Random, max_depth: int = 5) -> L.Term:
    """Random lambda-free term for structural tests (no reduction)."""
    if max_depth <= 0 or rng.random() < 0.4:
        return rng.choice(
            [
                SK.S,
                SK.K,
                SK.I,
                L.IntLit(rng.randint(-9, 9)),
                L.BoolLit(rng.random() < 0.5),
                L.Prim(rng.choice(list(L.PRIM_OPS))),
                L.Var(rng.choice(["a", "b", "q0", "ref_1"])),
            ]
        )
    return L.App(gen_ski_term(rng, max_depth - 1), gen_ski_term(rng, max_depth - 1))


def gen_normalizing_ski(rng: random.Random, max_depth: int = 4, fuel: int = 2000) -> L.Term:
    """Lambda-free term with a combinator normal form within `fuel`."""
    while True:
        t = gen_ski_term(rng, max_depth)
        try:
            SK.ski_reduce(t, fuel)
        except (L.FuelExhausted, L.EvalOverflowError):
            continue
        return t


# --- reference reducer ---------------------------------------------------------
# A copy of the recursive reducer the stack machine replaced: `_ref_whnf`
# unwinds a spine and rebuilds its argument list at every step,
# `_ref_delta` brings operands to WHNF by recursion, and `ref_normalize`
# recurses into lambda bodies and stuck arguments.  Its step order and
# fuel are the contract `lambda_ir._normalize` keeps.  The reference
# probe key below reduces with it, not with the stack machine.


_REF_BINARY = {
    "add": operator.add, "addZ": operator.add, "addR": operator.add,
    "sub": operator.sub, "mul": operator.mul, "eq": operator.eq,
}


def _ref_delta(op, args, fuel):
    if op in _REF_BINARY and len(args) >= 2:
        a = _ref_whnf(args[0], fuel)
        b = _ref_whnf(args[1], fuel)
        args[0], args[1] = a, b
        if isinstance(a, L.IntLit) and isinstance(b, L.IntLit):
            fuel.spend()
            v = _REF_BINARY[op](a.value, b.value)
            if op != "eq" and not L.INT64_MIN <= v <= L.INT64_MAX:
                raise L.EvalOverflowError(op, v)
            return (L.BoolLit(v) if op == "eq" else L.IntLit(v)), args[2:]
    elif op == "if" and len(args) >= 3:
        c = _ref_whnf(args[0], fuel)
        args[0] = c
        if isinstance(c, L.BoolLit):
            fuel.spend()
            return (args[1] if c.value else args[2]), args[3:]
    return None


def _ref_whnf(t, fuel):
    arity = {"I": 1, "K": 2, "S": 3}
    head, args = L.spine(t)
    while True:
        if isinstance(head, L.Lam) and args:
            fuel.spend()
            replacement, rest = L.substitute(head.body, head.param, args[0]), args[1:]
        elif isinstance(head, L.Comb) and len(args) >= arity[head.name]:
            fuel.spend()
            if head.name == "S":
                x, y, z = args[0], args[1], args[2]
                replacement, rest = L.App(L.App(x, z), L.App(y, z)), args[3:]
            else:
                replacement, rest = args[0], args[arity[head.name]:]
        elif isinstance(head, L.Prim) and (fired := _ref_delta(head.op, args, fuel)) is not None:
            replacement, rest = fired
        else:
            return L.apply_spine(head, *args)
        head, inner_args = L.spine(replacement)
        args = inner_args + rest


def ref_normalize(t, fuel):
    t = _ref_whnf(t, fuel)
    if isinstance(t, L.Lam):
        return L.Lam(t.param, ref_normalize(t.body, fuel))
    head, args = L.spine(t)
    if not args:
        return head
    return L.apply_spine(head, *(ref_normalize(a, fuel) for a in args))


# --- reference canonical form: the separate passes it was built from ---------------
# Saturation, eta contraction and the `#addZ`/`#addR` reading as three
# walks, and the probe key assembled from them, kept as the oracle for
# `lambda_ir.canonical_pass` and `ski_core.comparison_form`.


def ref_saturate_conditionals(t: L.Term) -> L.Term:
    if isinstance(t, L.Lam):
        return L.Lam(t.param, ref_saturate_conditionals(t.body))
    if not isinstance(t, L.App):
        return t
    head, args = L.spine(t)
    new_args = [ref_saturate_conditionals(a) for a in args]
    new_head = ref_saturate_conditionals(head) if isinstance(head, L.Lam) else head
    if isinstance(head, L.Prim) and head.op == "if" and len(new_args) <= 2 and isinstance(new_args[0], L.BoolLit):
        cond = new_args[0].value
        if len(new_args) == 1:
            return L.Lam("sat_a", L.Lam("sat_b", L.Var("sat_a" if cond else "sat_b")))
        taken = new_args[1]
        if not cond:
            return L.Lam("sat_b", L.Var("sat_b"))
        binder = "sat_b"
        if binder in L.free_vars(taken):
            binder = L._fresh(binder, L.free_vars(taken))
        return L.Lam(binder, taken)
    return L.apply_spine(new_head, *new_args)


def ref_eta_contract(t: L.Term) -> L.Term:
    if isinstance(t, L.Lam):
        body = ref_eta_contract(t.body)
        if (isinstance(body, L.App) and isinstance(body.arg, L.Var) and body.arg.name == t.param
                and t.param not in L.free_vars(body.fun)):
            return ref_eta_contract(body.fun)
        return L.Lam(t.param, body)
    if isinstance(t, L.App):
        return L.App(ref_eta_contract(t.fun), ref_eta_contract(t.arg))
    return t


def ref_read_adds(t: L.Term) -> L.Term:
    if isinstance(t, L.App):
        return L.App(ref_read_adds(t.fun), ref_read_adds(t.arg))
    if isinstance(t, L.Lam):
        return L.Lam(t.param, ref_read_adds(t.body))
    return L.Prim("add") if isinstance(t, L.Prim) and t.op in ("addZ", "addR") else t


def ref_canonical_normal_form(t: L.Term, fuel: int) -> L.Term:
    t = ref_normalize(t, L.Fuel(fuel))
    while True:
        contracted = ref_eta_contract(ref_saturate_conditionals(t))
        if contracted == t:
            return t
        t = ref_normalize(contracted, L.Fuel(fuel))


def ref_probe_key(side: L.Term, args: tuple[int, ...], fuel: int) -> object:
    applied = L.apply_spine(side, *(L.IntLit(v) for v in args))
    try:
        nf = ref_canonical_normal_form(SK.ski_decode(ref_normalize(applied, L.Fuel(fuel))), fuel)
        return L._debruijn(ref_read_adds(nf), ())
    except L.EvalOverflowError as exc:
        return exc
