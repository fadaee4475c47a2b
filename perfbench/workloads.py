"""Seeded program generators for the skic benchmark workloads.

A generated program is a small AST of tuples that renders to `.lam`
source text and evaluates in plain Python, so every program carries its
expected result on a sample of probe tuples.  That evaluation shares no
code with skic: it is the reference the emitted GAEL is checked against.

AST nodes:
    ("int", v) ("bool", b) ("var", name)
    ("prim", op, (arg, ...))      saturated #add/#sub/#mul/#eq/#if
    ("call", name, (arg, ...))    a definition or parameter applied to args
    ("lam", (param, ...), body)   only at the top of a definition or main

Each workload is a stream of rounds.  A round is a fixed list of program
shapes (arity, definition count, variable count); the seed only picks the
content.  Every round therefore costs about the same, and a run that
measures whole rounds samples each shape equally, whatever the seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# skic's default probe values; generated arithmetic must stay in range on them
SKIC_PROBE_VALUES = (-2, -1, 0, 1, 2, 3)
# the benchmark's own sample values reach outside skic's probe set
CHECK_VALUES = tuple(range(-4, 8))
CHECK_TUPLES = 4

# generated corpus_mix programs stay within the bundled corpus's size
# range: its largest program has 32 source tokens (19_ski_classic) and
# its widest item 6 inference variables (14_branch_square)
CORPUS_MAX_TOKENS = 32
CORPUS_MAX_VARIABLES = 6


class Overflow(Exception):
    pass


@dataclass(frozen=True)
class Program:
    """One benchmark input: source text plus what the check needs."""

    pid: str
    source: str
    # (probe tuple, expected int or bool); empty for bundled programs,
    # which rely on skic's own verdict
    expected: tuple[tuple[tuple[int, ...], object], ...]
    # the input property the workload's scaling rows group by
    group: int


# --- rendering ---------------------------------------------------------------


def render(e, arg: bool = False) -> str:
    tag = e[0]
    if tag == "int":
        return str(e[1])
    if tag == "bool":
        return "true" if e[1] else "false"
    if tag == "var":
        return e[1]
    if tag == "lam":
        text = "\\" + ".\\".join(e[1]) + ". " + render(e[2])
        return f"({text})" if arg else text
    head = f"#{e[1]}" if tag == "prim" else e[1]
    if not e[2]:
        return head
    text = " ".join([head] + [render(a, arg=True) for a in e[2]])
    return f"({text})" if arg else text


def render_program(defs, main) -> str:
    lines = [f"{name} := {render(body)};" for name, body in defs]
    lines.append(render(main))
    return "\n".join(lines) + "\n"


def count_tokens(source: str) -> int:
    """Source tokens: punctuation marks, words, literals and primitives."""
    count = 0
    for line in source.splitlines():
        line = line.split("--", 1)[0]
        for mark in (":=", "\\", ".", "(", ")", ";"):
            count += line.count(mark)
            line = line.replace(mark, " ")
        count += len(line.split())
    return count


# --- reference evaluation -----------------------------------------------------


def inference_leaves(e, def_names) -> int:
    """Leaf occurrences skic's type inference makes variables of: integer
    literals and every variable that is not a definition name."""
    tag = e[0]
    if tag == "int":
        return 1
    if tag == "var":
        return e[1] not in def_names
    if tag == "lam":
        return inference_leaves(e[2], def_names)
    if tag == "call":
        return (e[1] not in def_names) + sum(inference_leaves(a, def_names) for a in e[2])
    if tag == "prim":
        return sum(inference_leaves(a, def_names) for a in e[2])
    return 0


def _checked(v: int) -> int:
    if not INT64_MIN <= v <= INT64_MAX:
        raise Overflow(v)
    return v


def evaluate(e, env: dict):
    tag = e[0]
    if tag in ("int", "bool"):
        return e[1]
    if tag == "var":
        return env[e[1]]
    if tag == "lam":
        params, body = e[1], e[2]

        def curry(bound: dict, rest: tuple):
            def take(value):
                inner = dict(bound)
                inner[rest[0]] = value
                if len(rest) == 1:
                    return evaluate(body, inner)
                return curry(inner, rest[1:])

            return take

        return curry(env, params)
    if tag == "call":
        f = env[e[1]]
        for a in e[2]:
            f = f(evaluate(a, env))
        return f
    op, args = e[1], e[2]
    if op == "if":
        return evaluate(args[1] if evaluate(args[0], env) else args[2], env)
    a, b = evaluate(args[0], env), evaluate(args[1], env)
    if op == "eq":
        return a == b
    if op == "add":
        return _checked(a + b)
    if op == "sub":
        return _checked(a - b)
    return _checked(a * b)


def _program_env(defs) -> dict:
    env: dict = {}
    for name, body in defs:
        env[name] = evaluate(body, env)
    return env


def _apply(env: dict, main, args: tuple[int, ...]):
    value = evaluate(main, env)
    for a in args:
        value = value(a)
    return value


def make_program(pid: str, defs, main, arity: int, rng: random.Random, group: int) -> Program:
    """Render a program and compute its expected results.

    Arithmetic is checked for 64-bit range on every tuple of skic's own
    probe set as well as on the sample, so a generated program never
    overflows inside skic's search.
    """
    env = _program_env(defs)
    for args in _tuples(SKIC_PROBE_VALUES, arity):
        _apply(env, main, args)
    sample = sorted({tuple(rng.choice(CHECK_VALUES) for _ in range(arity)) for _ in range(CHECK_TUPLES)})
    expected = tuple((args, _apply(env, main, args)) for args in sample)
    for _, value in expected:
        if not isinstance(value, (int, bool)):
            raise TypeError(f"{pid}: result is not first-order")
    return Program(pid, render_program(defs, main), expected, group)


def _tuples(values, arity: int):
    if arity == 0:
        return [()]
    rest = _tuples(values, arity - 1)
    return [(v,) + r for v in values for r in rest]


# --- corpus_mix ---------------------------------------------------------------

# One round follows the bundled corpus's shape mix: one generated program
# per corpus program, with that program's main arity and definition count
# (`program_shape`).  The corpus has no program with three
# definitions, so each round adds one, to cover the 0-3 definitions the
# workload is defined over.
EXTRA_CORPUS_SHAPES = ((0, 3),)
_MAIN_BINDERS = re.compile(r"\\\s*[A-Za-z_]\w*\s*\.\s*")


def program_shape(source: str) -> tuple[int, int]:
    """(main arity, definition count) of `.lam` source; main arity is the
    number of binders leading main."""
    lines = [line.split("--", 1)[0].strip() for line in source.splitlines()]
    lines = [line for line in lines if line]
    main = lines[-1]
    arity = 0
    while (m := _MAIN_BINDERS.match(main)) is not None:
        main = main[m.end():]
        arity += 1
    return arity, sum(":=" in line for line in lines)


def corpus_shapes(corpus: list[Program]) -> tuple[tuple[int, int], ...]:
    """One shape per bundled program, plus the extra shapes."""
    return tuple(sorted(program_shape(prog.source) for prog in corpus)) + EXTRA_CORPUS_SHAPES


class _ExprGen:
    """Typed expression generator: ints over parameters, literals, calls."""

    def __init__(self, rng: random.Random, params, defs):
        self.rng = rng
        self.params = params
        self.defs = defs  # (name, kind, arity) of earlier definitions
        self.pool: list = []  # int subterms eligible for sharing

    def leaf(self):
        if self.params and self.rng.random() < 0.7:
            return ("var", self.rng.choice(self.params))
        return ("int", self.rng.randint(-2, 5))

    def int_expr(self, depth: int):
        rng = self.rng
        if self.pool and rng.random() < 0.25:
            return rng.choice(self.pool)
        if depth <= 0:
            return self.leaf()
        roll = rng.random()
        if roll < 0.45:
            op = rng.choice(("add", "add", "sub", "mul"))
            e = ("prim", op, (self.int_expr(depth - 1), self.int_expr(depth - 1)))
        elif roll < 0.6:
            e = ("prim", "if", (self.bool_expr(depth - 1), self.int_expr(depth - 1), self.int_expr(depth - 1)))
        elif roll < 0.85 and self.defs:
            e = self.call(depth - 1)
        else:
            return self.leaf()
        self.pool.append(e)
        return e

    def bool_expr(self, depth: int):
        return ("prim", "eq", (self.int_expr(depth), self.int_expr(max(depth - 1, 0))))

    def call(self, depth: int):
        name, kind, arity = self.rng.choice(self.defs)
        unary = [d[0] for d in self.defs if d[1] == "fo" and d[2] == 1]
        if kind == "fo":
            return ("call", name, tuple(self.int_expr(depth) for _ in range(arity)))
        if not unary:
            return self.leaf()
        fs = tuple(("var", self.rng.choice(unary)) for _ in range(arity - 1))
        return ("call", name, fs + (self.int_expr(depth),))


_HIGHER_ORDER = {
    # kind: (parameter names, body, arity)
    "twice": (("f", "x"), ("call", "f", (("call", "f", (("var", "x"),)),)), 2),
    "compose": (("f", "g", "x"), ("call", "f", (("call", "g", (("var", "x"),)),)), 3),
}


def _corpus_skeleton(rng: random.Random, arity: int, ndefs: int):
    """Definitions and main of one corpus_mix program, or None when it
    falls outside the corpus's size range."""
    defs = []
    known: list[tuple[str, str, int]] = []
    names = ("sq", "inc", "step", "mix", "pick", "bump", "dbl", "acc")
    for k in range(ndefs):
        unary = [d for d in known if d[1] == "fo" and d[2] == 1]
        if unary and rng.random() < 0.3:
            kind = rng.choice(sorted(_HIGHER_ORDER))
            params, body, def_arity = _HIGHER_ORDER[kind]
        else:
            kind, def_arity = "fo", rng.choice((1, 1, 2))
            params = ("x", "y")[:def_arity]
            body = _ExprGen(rng, params, known).int_expr(rng.choice((1, 2)))
        name = f"{kind if kind != 'fo' else rng.choice(names)}{k}"
        defs.append((name, ("lam", params, body)))
        known.append((name, kind, def_arity))
    params = ("a", "b", "c")[:arity]
    gen = _ExprGen(rng, params, known)
    if known:
        # main calls the last definition, as five of the corpus's six
        # programs with definitions do
        gen.defs = known[-1:]
        body = gen.call(1)
        gen.defs = known
        if rng.random() < 0.4:
            body = ("prim", rng.choice(("add", "mul", "sub")), (body, gen.int_expr(1)))
    elif arity >= 1 and rng.random() < 0.15:
        body = gen.bool_expr(2)
    else:
        body = gen.int_expr(2)
    main = ("lam", params, body) if arity else body
    names = {name for name, _ in defs}
    if max(inference_leaves(body, names) for _, body in defs + [("main", main)]) > CORPUS_MAX_VARIABLES:
        return None
    if count_tokens(render_program(defs, main)) > CORPUS_MAX_TOKENS:
        return None
    return defs, main


def _redraw(e, rng: random.Random, rename: dict, memo: dict):
    """The same structure with new literals, arithmetic operators and a
    permutation of parameter roles; shared subterms stay shared."""
    out = memo.get(id(e))
    if out is not None:
        return out
    tag = e[0]
    if tag == "int":
        out = ("int", rng.randint(-2, 5))
    elif tag == "var":
        out = ("var", rename.get(e[1], e[1]))
    elif tag == "lam":
        out = ("lam", e[1], _redraw(e[2], rng, rename, memo))
    elif tag in ("prim", "call"):
        head = rng.choice(("add", "sub", "mul")) if e[1] in ("add", "sub", "mul") else rename.get(e[1], e[1])
        out = (tag, head, tuple(_redraw(a, rng, rename, memo) for a in e[2]))
    else:
        out = e
    memo[id(e)] = out
    return out


def _permuted(params, rng: random.Random) -> dict:
    shuffled = list(params)
    rng.shuffle(shuffled)
    return dict(zip(params, shuffled))


def _redraw_program(defs, main, rng: random.Random, main_params: tuple[str, ...]):
    # parameters of the higher-order definitions keep their roles
    new_defs = [
        (name, _redraw(body, rng, {} if body[0] != "lam" or "f" in body[1] else _permuted(body[1], rng), {}))
        for name, body in defs
    ]
    return new_defs, _redraw(main, rng, _permuted(main_params, rng), {})


def corpus_program(rng: random.Random, pid: str, shape: tuple[int, int], attempt: int) -> Program:
    """A corpus_mix program: structure from a skeleton stream that does not
    depend on the seed, so every seed measures the same mix of program
    shapes and sizes; the seed draws literals, operators and which
    parameter plays which role.  Distinct seeds give distinct programs."""
    arity, ndefs = shape
    skeleton_rng = random.Random(f"corpus_mix skeleton {pid} {attempt}")
    while True:
        skeleton = _corpus_skeleton(skeleton_rng, arity, ndefs)
        if skeleton is None:
            continue
        for _ in range(20):
            defs, main = _redraw_program(*skeleton, rng, ("a", "b", "c")[:arity])
            try:
                return make_program(pid, defs, main, arity, rng, group=arity)
            except Overflow:
                # outside the workload's domain: skic defines 64-bit
                # overflow as an evaluation error, a robustness case,
                # not compile traffic
                continue


def bundled_corpus(root: Path) -> list[Program]:
    """The bundled `corpus/*.lam` programs; their check is skic's verdict."""
    out = []
    for path in sorted((root / "corpus").glob("*.lam"), key=lambda p: p.name):
        source = path.read_text(encoding="utf-8")
        out.append(Program(path.stem, source, (), group=-1))
    return out


# --- def_chain ----------------------------------------------------------------

# Definition counts of one round.  A round is kept short so that a run
# holds several passes: a chain compiles for seconds, and only its
# fastest pass is steady on a shared host.
CHAIN_SIZES = (8, 10)
_LEAF_OPS = ("add", "sub", "mul")


def _chain_body(srng: random.Random, crng: random.Random, kind: int, prev: str, leaves: list[str]):
    """A body that calls the previous definition once, with its parameter
    used once, so evaluation cost grows linearly along the chain."""
    call_prev = lambda arg: ("call", prev, (arg,))
    x = ("var", "x")
    leaf = srng.choice(leaves)
    c = ("int", crng.randint(1, 5))
    if kind == 0:
        return ("prim", "add", (call_prev(x), c))
    if kind == 1:
        return call_prev(("call", leaf, (x,)))
    if kind == 2:
        return ("call", leaf, (call_prev(x),))
    if kind == 3:
        return ("prim", "sub", (call_prev(x), ("call", leaf, (c,))))
    if kind == 4:
        return ("prim", "if", (("prim", "eq", (c, ("int", 0))), c, call_prev(x)))
    return ("prim", "add", (("call", leaf, (c,)), call_prev(x)))


def chain_program(rng: random.Random, pid: str, n: int, attempt: int = 0) -> Program:
    """A def_chain program.  The chain's structure -- body shapes, their
    order and which leaf each calls -- comes from a stream that does not
    depend on the seed, so chains of one length cost the same whatever
    the seed; the seed draws the constants."""
    srng = random.Random(f"def_chain skeleton {pid} {attempt}")
    defs = []
    leaves = []
    for k in range(3):
        op = srng.choice(_LEAF_OPS)
        c = ("int", 2 if op == "mul" else rng.randint(1, 4))
        defs.append((f"l{k}", ("lam", ("x",), ("prim", op, (("var", "x"), c)))))
        leaves.append(f"l{k}")
    # every body shape occurs equally often in a chain of a given length
    kinds = [k % 6 for k in range(n - 3)]
    srng.shuffle(kinds)
    prev = leaves[-1]
    for k, kind in enumerate(kinds, start=3):
        name = f"d{k}"
        defs.append((name, ("lam", ("x",), _chain_body(srng, rng, kind, prev, leaves))))
        prev = name
    main = ("lam", ("y",), ("call", prev, (("var", "y"),)))
    return make_program(pid, defs, main, 1, rng, group=n)


# --- infer_wide ---------------------------------------------------------------

# Inference-variable counts per item, one program per entry.  Sorted by
# enumeration cost the middle entry is the 7-variable item, so the run's
# median sits inside the 7-variable group.
INFER_PROFILES = ((5,), (6,), (5, 6), (7,), (5, 7), (6, 7), (8,))


class _LeafGen:
    """Expressions with an exact number of untyped leaf occurrences."""

    def __init__(self, rng: random.Random, params):
        self.rng = rng
        self.params = params

    def leaf(self):
        if self.params and self.rng.random() < 0.5:
            return ("var", self.rng.choice(self.params))
        return ("int", self.rng.randint(-3, 4))

    def int_expr(self, k: int):
        rng = self.rng
        if k == 1:
            return self.leaf()
        if k >= 4 and rng.random() < 0.35:
            kc = 2
            kt = rng.randint(1, k - kc - 1)
            return ("prim", "if", (self.bool_expr(kc), self.int_expr(kt), self.int_expr(k - kc - kt)))
        left = rng.randint(1, k - 1)
        op = rng.choice(("add", "add", "mul"))
        return ("prim", op, (self.int_expr(left), self.int_expr(k - left)))

    def bool_expr(self, k: int):
        left = self.rng.randint(1, k - 1)
        return ("prim", "eq", (self.int_expr(left), self.int_expr(k - left)))


def _infer_skeleton(rng: random.Random, profile: tuple[int, ...]):
    defs = []
    if len(profile) == 2:
        def_arity = rng.randint(0, 1)
        params = ("y",)[:def_arity]
        body = _LeafGen(rng, params).int_expr(profile[0])
        defs.append(("g", ("lam", params, body) if def_arity else body))
    arity = rng.randint(0, 1)
    params = ("x",)[:arity]
    gen = _LeafGen(rng, params)
    k = profile[-1]
    if defs:
        # one leaf of the budget feeds the definition (or the call slot
        # stands in for one, when the definition takes no argument)
        call = ("call", "g", (gen.leaf(),)) if def_arity else ("var", "g")
        rest = gen.int_expr(k - def_arity) if k - def_arity >= 1 else None
        body = ("prim", "add", (call, rest)) if rest is not None else call
    else:
        body = gen.int_expr(k)
    return defs, ("lam", params, body) if arity else body, arity


def infer_program(rng: random.Random, pid: str, profile: tuple[int, ...], attempt: int = 0) -> Program:
    """An infer_wide program.  As in corpus_mix, the structure -- and with
    it the factor graph inference enumerates -- comes from a stream that
    does not depend on the seed; the seed draws literals and operators."""
    defs, main, arity = _infer_skeleton(random.Random(f"infer_wide skeleton {pid} {attempt}"), profile)
    defs, main = _redraw_program(defs, main, rng, ("x",)[:arity])
    return make_program(pid, defs, main, arity, rng, group=max(profile))


# --- workload table -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_program: Callable[[random.Random, str, object, int], Program]
    shapes: tuple  # one program per shape in every round; corpus_mix's come from the corpus
    # rounds one pass compiles; every pass of a seed compiles the same
    # programs, so counts, gael_tokens and the report digest repeat exactly
    rounds: int
    include_corpus: bool
    tiny_shapes: tuple  # for the self-test


WORKLOADS = {
    "corpus_mix": Workload(
        "corpus_mix",
        "the shipped evaluation's traffic: the 20 bundled programs plus distinct seeded programs "
        "in the corpus's arity and definition mix; probing and normalisation do most of the work",
        corpus_program,
        (),  # from the bundled corpus: `corpus_shapes`
        rounds=4,
        include_corpus=True,
        tiny_shapes=((0, 1), (1, 0), (2, 1)),
    ),
    "def_chain": Workload(
        "def_chain",
        "long definition chains (8 and 10): whole-program re-inlining per beam candidate (substitute_free) "
        "plus probing dominate, growing steeply with definition count",
        chain_program,
        CHAIN_SIZES,
        rounds=1,
        include_corpus=False,
        tiny_shapes=(4, 5),
    ),
    "infer_wide": Workload(
        "infer_wide",
        "items with 5-8 inference variables: the 4^n enumeration in type_infer.posterior is "
        "almost all the time; probing and search are cheap",
        infer_program,
        INFER_PROFILES,
        rounds=1,
        include_corpus=False,
        tiny_shapes=((3,), (2, 3)),
    ),
}


class ProgramStream:
    """Distinct programs of one workload, round by round, from one seed."""

    def __init__(self, workload: Workload, seed: int, root: Path, tiny: bool = False):
        self.workload = workload
        self.shapes = workload.tiny_shapes if tiny else workload.shapes
        self.rng = random.Random(seed * 1_000_003 + sorted(WORKLOADS).index(workload.name))
        self.seen: set[str] = set()
        self.rounds = 0
        self.pending_corpus = bundled_corpus(root) if workload.include_corpus and not tiny else []
        if self.pending_corpus:
            self.shapes = corpus_shapes(self.pending_corpus)

    def next_round(self) -> list[Program]:
        programs, self.pending_corpus = self.pending_corpus, []
        for i, shape in enumerate(self.shapes):
            pid = f"{self.workload.name}{self.rounds}_{i}"
            attempt = 0
            while True:
                prog = self.workload.make_program(self.rng, pid, shape, attempt)
                if prog.source not in self.seen:
                    break
                attempt += 1
            self.seen.add(prog.source)
            programs.append(prog)
        self.rounds += 1
        return programs
