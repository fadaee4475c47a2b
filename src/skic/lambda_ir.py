"""The term algebra: parser, normal-order evaluator, printing.

One term type serves both the source language and GAEL.  The surface
language is a minimal functional calculus:

    program := (def ";")* expr?
    def     := ident ":=" expr
    expr    := "\\" ident+ "." expr | app
    app     := atom+                (left-associative application)
    atom    := ident | integer | "true" | "false" | "#"primname
             | "(" expr ")"

GAEL, the combinator form, is the lambda-free subset with the constants
S, K and I added: its dialect has no `\\` or `.`, and `S`, `K`, `I` are
atoms.  Combinators reduce by S x y z -> x z (y z), K x y -> x, I x -> x.

Comments run from `--` to end of line.  Identifiers match
[a-z][a-z0-9_]*; `true` and `false` are reserved literal keywords.
Integer atoms may carry a leading minus sign and must lie in the 64-bit
signed range.
"""

from __future__ import annotations

import operator
import re
from dataclasses import FrozenInstanceError, dataclass
from typing import Mapping, NamedTuple, Optional, Union

PRIM_OPS = ("add", "sub", "mul", "eq", "if", "addZ", "addR")

ARITH_OPS = ("add", "sub", "mul", "addZ", "addR")

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

DEFAULT_FUEL = 10_000


class LambdaError(Exception):
    """Base class for surface-language errors."""


class ParseError(LambdaError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class UnboundIdentifierError(ParseError):
    def __init__(self, name: str, line: int, column: int):
        super().__init__(f"unbound identifier '{name}'", line, column)
        self.name = name


class DuplicateDefinitionError(ParseError):
    def __init__(self, name: str, line: int, column: int):
        super().__init__(f"duplicate definition '{name}'", line, column)
        self.name = name


class EvalOverflowError(LambdaError):
    def __init__(self, op: str, value: int):
        super().__init__(f"#{op} result {value} exceeds 64-bit signed range")
        self.op = op
        self.value = value


class LanesDiverge(LambdaError):
    """A lane-valued reduction (`_normalize`) reached a step its lanes take
    differently.  Its args: the primitive, and each lane's `#if` condition
    or each lane's result, where some leave the 64-bit range."""


class FuelExhausted(LambdaError):
    """The step budget ran out before a normal form was reached.

    This is a verdict about the budget, not about the term.
    """


# --- terms ------------------------------------------------------------


class _Node:
    """The base of the term classes: immutable `__slots__` nodes that
    compare by exact class, then by the fields' tuple, hash as that tuple
    and print and match by field name, as frozen dataclasses do.  Their
    `__init__` sets the slots through the descriptors: `__setattr__` refuses."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = fields = cls.__slots__
        get = operator.attrgetter(*fields)  # two fields read as a tuple, one as its value
        key = get if len(fields) == 2 else lambda t: (get(t),)
        cls.__eq__ = lambda t, u: get(t) == get(u) if u.__class__ is t.__class__ else NotImplemented
        cls.__hash__ = lambda t: hash(key(t))
        cls.__reduce__ = lambda t: (t.__class__, key(t))
        if "__init__" in vars(cls):
            return
        setters = [getattr(cls, f).__set__ for f in fields]
        if len(setters) == 2:
            set_a, set_b = setters

            def __init__(self, a, b):
                set_a(self, a)
                set_b(self, b)
        else:
            (set_a,) = setters

            def __init__(self, a):
                set_a(self, a)
        cls.__init__ = __init__

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__)})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Var(_Node):
    __slots__ = ("name",)


class Lam(_Node):
    __slots__ = ("param", "body")


class App(_Node):
    __slots__ = ("fun", "arg")


class IntLit(_Node):
    __slots__ = ("value",)


class BoolLit(_Node):
    __slots__ = ("value",)


class Prim(_Node):
    __slots__ = ("op",)

    def __init__(self, op: str):
        if op not in PRIM_OPS:
            raise ValueError(f"unknown primitive #{op}")
        Prim.op.__set__(self, op)


class Comb(_Node):
    """A combinator constant: "S", "K" or "I"."""

    __slots__ = ("name",)


S = Comb("S")
K = Comb("K")
I = Comb("I")  # noqa: E741 -- the combinator's own name

# arguments a combinator's rule consumes
_COMB_ARITY = {"I": 1, "K": 2, "S": 3}

Term = Union[Var, Lam, App, IntLit, BoolLit, Prim, Comb]


@dataclass(frozen=True)
class Program:
    """Ordered definitions plus an optional main expression.

    Definition names are unique and a body may reference only earlier
    definitions, so closing the items in order substitutes only closed
    bodies and always terminates.
    """

    defs: tuple[tuple[str, Term], ...]
    main: Optional[Term]

    def items(self) -> list[tuple[Optional[str], Term]]:
        """The definitions in order, then main (if any) under the name None."""
        return [*self.defs, *([(None, self.main)] if self.main is not None else [])]

    @classmethod
    def of_items(cls, items: list[tuple[Optional[str], Term]]) -> "Program":
        """The inverse of `items`: the item named None is main."""
        defs = tuple((name, body) for name, body in items if name is not None)
        return cls(defs, next((body for name, body in items if name is None), None))


def apply_spine(fun: Term, *args: Term) -> Term:
    for a in args:
        fun = App(fun, a)
    return fun


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Split `f a b c` into (f, [a, b, c])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def free_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, App):
        return free_vars(t.fun) | free_vars(t.arg)
    if isinstance(t, Lam):
        return free_vars(t.body) - {t.param}
    return frozenset()


def leading_lambda_count(t: Term) -> int:
    n = 0
    while isinstance(t, Lam):
        n += 1
        t = t.body
    return n


# --- lexer / parser ---------------------------------------------------


class Token(NamedTuple):
    """One lexeme; `kind` is its token class."""

    kind: str  # punct | ident | int | prim | keyword | comb
    text: str
    line: int
    col: int


def _token_re(punct: str, comb: str = "") -> re.Pattern:
    # ASCII classes spelled out: \d and \w admit other scripts
    return re.compile(
        rf"(?P<newline>\n)|(?P<blank>[ \t\r]+)|(?P<comment>--[^\n]*)|(?P<punct>:=|[{punct}]){comb}"
        r"|(?P<int>-?[0-9]+)|(?P<prim>#[A-Za-z0-9_]+)|(?P<word>[a-z][a-z0-9_]*)"
    )


# one token table per dialect: the alternatives in priority order
_TOKEN_RE = {"source": _token_re(r"\\.();"), "gael": _token_re("();", "|(?P<comb>[SKI])")}


def _lex(source: str, dialect: str = "source") -> list[Token]:
    """Tokens of `source` in the "source" or "gael" dialect."""
    if dialect not in _TOKEN_RE:
        raise ValueError(f"unknown dialect {dialect!r}")
    match = _TOKEN_RE[dialect].match
    toks: list[Token] = []
    i, line, line_start = 0, 1, 0
    while i < len(source):
        m = match(source, i)
        if m is None:
            c = source[i]
            message = "expected primitive name after '#'" if c == "#" else f"unexpected character {c!r}"
            raise ParseError(message, line, i - line_start + 1)
        kind, text = m.lastgroup, m.group()
        if kind == "word":
            kind = "keyword" if text in ("true", "false") else "ident"
        if kind == "newline":
            line, line_start = line + 1, i + 1
        elif kind != "blank" and kind != "comment":
            toks.append(Token(kind, text, line, i - line_start + 1))
        i = m.end()
    return toks


class _Parser:
    def __init__(self, toks: list[Token], allow_free: bool = False):
        self.toks = toks
        self.pos = 0
        self.allow_free = allow_free

    def peek(self) -> Optional[Token]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.toks[-1] if self.toks else Token("punct", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col + len(last.text))
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def parse_program(self) -> Program:
        """Parse every token; nesting deeper than the recursive descent
        can follow is a ParseError at the last token read."""
        try:
            return self._program()
        except RecursionError:
            tok = self.toks[min(self.pos, len(self.toks)) - 1]
            raise ParseError("expression nested too deeply", tok.line, tok.col) from None

    def _program(self) -> Program:
        defs: dict[str, Term] = {}  # also the scope of each later body
        toks = self.toks
        main_def: Optional[Token] = None
        while self.pos + 1 < len(toks) and (toks[self.pos].kind, toks[self.pos + 1].text) == ("ident", ":="):
            name_tok = self.next()
            self.expect(":=")
            body = self.parse_expr(scope=(), defs=defs)
            self.expect(";")
            if name_tok.text in defs:
                raise DuplicateDefinitionError(name_tok.text, name_tok.line, name_tok.col)
            defs[name_tok.text] = body
            main_def = name_tok if name_tok.text == "main" else main_def
        if main_def is not None and self.peek() is not None:
            raise ParseError("definition 'main' clashes with the main expression", main_def.line, main_def.col)
        main = self.parse_expr(scope=(), defs=defs) if self.peek() is not None else None
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
        return Program(defs=tuple(defs.items()), main=main)

    def parse_expr(self, scope: tuple[str, ...], defs: dict[str, Term]) -> Term:
        if self.at("\\"):
            self.next()
            params: list[Token] = []
            while True:
                tok = self.next()
                if tok.kind != "ident":
                    raise ParseError(f"expected parameter name, found {tok.text!r}", tok.line, tok.col)
                params.append(tok)
                if self.at("."):
                    self.next()
                    break
            body_scope = scope + tuple(p.text for p in params)
            body = self.parse_expr(body_scope, defs)
            for p in reversed(params):
                body = Lam(p.text, body)
            return body
        return self.parse_app(scope, defs)

    def parse_app(self, scope: tuple[str, ...], defs: dict[str, Term]) -> Term:
        term = self.parse_atom(scope, defs)
        while True:
            tok = self.peek()
            if tok is None or tok.text in (")", ";", ":=", "\\"):
                if tok is not None and tok.text == "\\":
                    raise ParseError("lambda must be parenthesized in argument position", tok.line, tok.col)
                return term
            term = App(term, self.parse_atom(scope, defs))

    def parse_atom(self, scope: tuple[str, ...], defs: dict[str, Term]) -> Term:
        tok = self.next()
        if tok.text == "(":
            inner = self.parse_expr(scope, defs)
            self.expect(")")
            return inner
        if tok.kind == "int":
            value = int(tok.text)
            if not INT64_MIN <= value <= INT64_MAX:
                raise ParseError(f"integer literal {tok.text} exceeds 64-bit signed range", tok.line, tok.col)
            return IntLit(value)
        if tok.kind == "comb":
            return Comb(tok.text)
        if tok.kind == "keyword":
            return BoolLit(tok.text == "true")
        if tok.kind == "prim":
            op = tok.text[1:]
            if op not in PRIM_OPS:
                raise ParseError(f"unknown primitive {tok.text!r}", tok.line, tok.col)
            return Prim(op)
        if tok.kind == "ident":
            if tok.text in scope or tok.text in defs or self.allow_free:
                return Var(tok.text)
            raise UnboundIdentifierError(tok.text, tok.line, tok.col)
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def parse_program(source: str) -> Program:
    """Parse surface text into a Program.

    Raises ParseError (with line/column), UnboundIdentifierError, or
    DuplicateDefinitionError.
    """
    return _Parser(_lex(source)).parse_program()


def parse_term(source: str, allow_free: bool = False) -> Term:
    """Parse a single expression with no definitions.

    `allow_free` admits free variables (term fragments for analysis);
    whole programs always enforce scoping.
    """
    prog = _Parser(_lex(source), allow_free=allow_free).parse_program()
    if prog.defs or prog.main is None:
        raise ParseError("expected a single expression", 1, 1)
    return prog.main


# --- substitution -----------------------------------------------------


def _fresh(base: str, avoid: frozenset[str]) -> str:
    i = 1
    candidate = f"{base}_{i}"
    while candidate in avoid:
        i += 1
        candidate = f"{base}_{i}"
    return candidate


def substitute(t: Term, name: str, value: Term) -> Term:
    """Capture-avoiding substitution t[name := value]."""
    if isinstance(t, Var):
        return value if t.name == name else t
    if isinstance(t, App):
        return App(substitute(t.fun, name, value), substitute(t.arg, name, value))
    if isinstance(t, Lam):
        param, body = t.param, t.body
        if param == name:
            return t
        if param in free_vars(value) and name in free_vars(body):
            renamed = _fresh(param, free_vars(value) | free_vars(body))
            body = substitute(body, param, Var(renamed))
            param = renamed
        return Lam(param, substitute(body, name, value))
    return t


def substitute_closed(t: Term, env: Mapping[Optional[str], Term]) -> Term:
    """t with each free name in `env` replaced by its closed value, in one
    walk: it steps under every binder, leaving out the names the binder
    shadows, and stops at one that shadows them all; it never enters a
    value, and nothing can be captured."""
    if isinstance(t, Var):
        return env.get(t.name, t)
    if isinstance(t, App):
        return App(substitute_closed(t.fun, env), substitute_closed(t.arg, env))
    if isinstance(t, Lam):
        inner = {name: v for name, v in env.items() if name != t.param} if t.param in env else env
        return Lam(t.param, substitute_closed(t.body, inner)) if inner else t
    return t


# --- normal-order reduction -------------------------------------------


class Fuel:
    """Mutable step budget shared across one reduction."""

    __slots__ = ("remaining",)

    def __init__(self, steps: int):
        if steps < 0:
            raise ValueError("fuel must be nonnegative")
        self.remaining = steps

    def spend(self) -> None:
        if self.remaining <= 0:
            raise FuelExhausted("reduction step budget exhausted")
        self.remaining -= 1


# the two-operand primitives on integer literals; `eq` gives a BoolLit
_BINARY = {
    "add": operator.add, "addZ": operator.add, "addR": operator.add,
    "sub": operator.sub, "mul": operator.mul, "eq": operator.eq,
}


def _lanewise(op: str, a, b):
    """`#op a b` where `a` or `b` holds lanes: lane by lane, one value where
    the lanes all agree, and LanesDiverge where some leave the 64-bit range."""
    n = len(a if type(a) is tuple else b)
    v = tuple(map(_BINARY[op], a if type(a) is tuple else (a,) * n, b if type(b) is tuple else (b,) * n))
    if v.count(v[0]) == n:
        return v[0]
    if op != "eq" and not INT64_MIN <= min(v) <= max(v) <= INT64_MAX:
        raise LanesDiverge(op, v)
    return v


# `#addZ`/`#addR` are `#add` tagged Int/Real: they evaluate alike, and a
# canonical normal form reads them as `#add`
_UNTAGGED = {Prim("addZ"): Prim("add"), Prim("addR"): Prim("add")}


# operands a primitive's rule consumes
_PRIM_ARITY = {op: 3 if op == "if" else 2 for op in PRIM_OPS}

# the literal classes, whose value may hold lanes
_LITERALS = (IntLit, BoolLit)

# continuation frames of `_normalize`
_OPERAND, _BODY, _ARGS = range(3)


def _build(t: Union[Term, tuple]) -> Term:
    """The term an argument-stack entry stands for: an S step leaves `(y z)`
    as the pair `(y, z)`, whose parts may be pairs too.  Each pair becomes
    one `App`, bottom-up and without recursion, so shared pairs stay shared."""
    if type(t) is not tuple:
        return t
    built: dict[int, Term] = {}  # by the id of the pair
    todo = [t]
    while todo:
        unbuilt = [q for q in todo[-1] if type(q) is tuple and id(q) not in built]
        if unbuilt:
            todo += unbuilt
        elif id(pair := todo.pop()) not in built:
            built[id(pair)] = App(*(built.get(id(q), q) for q in pair))
    return built[id(t)]


def _normalize(t: Term, fuel: Fuel) -> Term:
    """Reduce to beta-delta normal form, leftmost-outermost.

    A stack machine with no recursion: `t` unwinds onto `args`, whose
    last element is the first argument.  A primitive's operand, a lambda
    body and each argument of a stuck spine are reduced under a frame on
    `frames`.  A beta, combinator or delta step spends one unit of fuel,
    a delta step after its operands reach weak head normal form;
    operands that are not literals leave the application stuck.

    An S step leaves its `(y z)` on `args` as the pair `(y, z)`, which
    unwinds as an application does, and a K step drops unbuilt.  The pair
    becomes an `App` (`_build`) only where it leaves the stack: as the
    value a beta step substitutes, or inside a stuck operand's spine.

    A literal's value may be a tuple, one value per lane, not all equal:
    the term then stands for one term per lane.  Every choice here reads
    node types alone but the `#if` condition and the binary delta step,
    which go lane by lane after spending their unit; LanesDiverge stops
    the run where the lanes part.
    """
    spend = fuel.spend
    args: list = []
    frames: list[tuple] = []
    while True:
        kind = type(t)
        while kind is App or kind is tuple:
            if kind is App:
                args.append(t.arg)
                t = t.fun
            else:  # an unbuilt pair (y, z) stands for App(y, z)
                args.append(t[1])
                t = t[0]
            kind = type(t)
        if kind is Lam and args:
            spend()
            t = substitute(t.body, t.param, _build(args.pop()))
            continue
        if kind is Comb and len(args) >= _COMB_ARITY[t.name]:
            spend()
            name, t = t.name, args.pop()
            if name == "K":
                args.pop()
            elif name == "S":  # S x y z -> x z (y z)
                y, z = args.pop(), args[-1]
                args[-1] = (y, z)
                args.append(z)
            continue
        if kind is Prim and len(args) >= _PRIM_ARITY[t.op]:
            frames.append((_OPERAND, t, args, 1))
            t, args = args[-1], []
            continue
        # (t, args) is a weak head normal form; an operand frame takes it back
        while frames and frames[-1][0] == _OPERAND:
            _, prim, outer, i = frames.pop()
            outer[-i] = apply_spine(t, *map(_build, reversed(args))) if args else t
            op = prim.op
            if i == 1 and op != "if":
                frames.append((_OPERAND, prim, outer, 2))
                t, args = outer[-2], []
                break
            if op == "if":
                if type(outer[-1]) is BoolLit:
                    spend()
                    cond, x, y = outer.pop().value, outer.pop(), outer.pop()
                    if type(cond) is tuple:
                        raise LanesDiverge(op, cond)
                    t, args = (x if cond else y), outer
                    break
            elif type(outer[-1]) is IntLit and type(outer[-2]) is IntLit:
                spend()
                a, b = outer.pop().value, outer.pop().value
                v = _lanewise(op, a, b) if type(a) is tuple or type(b) is tuple else _BINARY[op](a, b)
                if op != "eq" and type(v) is not tuple and not INT64_MIN <= v <= INT64_MAX:
                    raise EvalOverflowError(op, v)
                t, args = (BoolLit(v) if op == "eq" else IntLit(v)), outer
                break
            t, args = prim, outer  # stuck: the primitive's spine is a WHNF too
        else:
            # no operand waits: normalise a stuck head's arguments, first to last
            if args:
                frames.append((_ARGS, t, [], args))
                t, args = args.pop(), []
                continue
            if type(t) is Lam:
                frames.append((_BODY, t.param))
                t = t.body
                continue
            # t is a normal form: close the frames it completes
            while frames:
                frame = frames[-1]
                if frame[0] == _BODY:
                    t = Lam(frame[1], t)
                else:
                    _, head, done, todo = frame
                    done.append(t)
                    if todo:  # reduce the next argument
                        t = todo.pop()
                        break
                    t = apply_spine(head, *done)
                frames.pop()
            else:
                return t


def is_normal_form(t: Term) -> bool:
    """Scan for any remaining beta, combinator or delta redex."""
    if isinstance(t, Lam):
        return is_normal_form(t.body)
    head, args = spine(t)
    if isinstance(head, Lam):
        return False
    if isinstance(head, Comb) and len(args) >= _COMB_ARITY[head.name]:
        return False
    if isinstance(head, Prim):
        if head.op in _BINARY:
            if len(args) >= 2 and isinstance(args[0], IntLit) and isinstance(args[1], IntLit):
                return False
        elif head.op == "if":
            if len(args) >= 3 and isinstance(args[0], BoolLit):
                return False
    return all(is_normal_form(a) for a in args)


# --- alpha equivalence and the canonical form ------------------------


def _debruijn(t: Term, env: tuple[str, ...]) -> object:
    if isinstance(t, App):
        return ("app", _debruijn(t.fun, env), _debruijn(t.arg, env))
    if isinstance(t, Var):
        try:
            return ("b", env.index(t.name))
        except ValueError:
            return ("f", t.name)
    if isinstance(t, Lam):
        return ("lam", _debruijn(t.body, (t.param,) + env))
    return t  # constants compare by value


def alpha_equivalent(a: Term, b: Term) -> bool:
    """Structural equality up to consistent bound-variable renaming."""
    return _debruijn(a, ()) == _debruijn(b, ())


def canonical_pass(t: Term) -> Term:
    """One bottom-up walk: `#addZ`/`#addR` read as `#add`, under-applied
    conditionals with literal conditions take their lambda meaning
    (#if true x == \\b. x, #if false x == \\b. b, #if true == \\a.\\b. a,
    #if false == \\a.\\b. b), and every lambda eta-contracts
    (\\x. M x -> M wherever x is not free in M).

    On beta-delta normal forms saturation closes the gap between delta
    and eta: eta-expanding such a spine would let the conditional fire,
    so structural comparison must not distinguish the two shapes.  The
    conditional is the only primitive whose rule can fire through
    eta-expansion (arithmetic needs literal operands, and an expansion
    variable never is one).  A condition is read as it stands before the
    walk, which may eta-contract it into a literal.

    A term the walk leaves unchanged comes back as itself, so the result
    is `t` exactly when it equals `t`.
    """
    if isinstance(t, Lam):
        body = canonical_pass(t.body)
        if isinstance(body, App) and body.arg == Var(t.param) and t.param not in free_vars(body.fun):
            return body.fun
        return t if body is t.body else Lam(t.param, body)
    if not isinstance(t, App):
        return _UNTAGGED.get(t, t)
    head, args = spine(t)
    if isinstance(head, Prim) and head.op == "if" and len(args) <= 2 and isinstance(args[0], BoolLit):
        cond = args[0].value
        if len(args) == 1:
            return Lam("sat_a", Lam("sat_b", Var("sat_a" if cond else "sat_b")))
        if not cond:
            return Lam("sat_b", Var("sat_b"))
        taken = canonical_pass(args[1])
        avoid = free_vars(taken)
        return Lam(_fresh("sat_b", avoid) if "sat_b" in avoid else "sat_b", taken)
    parts = (head, *args)
    passed = [*map(canonical_pass, parts)]
    return t if all(map(operator.is_, passed, parts)) else apply_spine(*passed)


def canonical_normal_form(t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """Beta-delta normal form closed under `canonical_pass`.

    Eta contraction can expose fresh delta redexes (a contracted
    argument may become a literal), so normalisation and the pass
    iterate to a fixpoint; each is meaning-preserving, and a change the
    pass makes removes an eta-redex, an under-applied `#if` or a type tag.
    """
    return canonical_closure(_normalize(t, Fuel(fuel)), fuel)


def canonical_closure(t: Term, fuel: int) -> Term:
    """`canonical_normal_form` of a term already in beta-delta normal
    form, whose first normalisation would take no step."""
    while True:
        passed = canonical_pass(t)
        if passed is t:
            return t
        t = _normalize(passed, Fuel(fuel))


# --- printing ----------------------------------------------------------


def pretty_print(t: Term) -> str:
    """Canonical text form; reparses to an alpha-equivalent term.

    A lambda-free term prints as GAEL text.
    """
    if isinstance(t, App):
        fun_text = pretty_print(t.fun)
        if isinstance(t.fun, Lam):
            fun_text = f"({fun_text})"
        arg_text = pretty_print(t.arg)
        if isinstance(t.arg, (App, Lam)):
            arg_text = f"({arg_text})"
        return f"{fun_text} {arg_text}"
    if isinstance(t, (Var, Comb)):
        return t.name
    if isinstance(t, IntLit):
        return str(t.value)
    if isinstance(t, BoolLit):
        return "true" if t.value else "false"
    if isinstance(t, Prim):
        return f"#{t.op}"
    if isinstance(t, Lam):
        sep = "" if isinstance(t.body, Lam) else " "
        return f"\\{t.param}.{sep}{pretty_print(t.body)}"
    raise TypeError(f"not a Term: {t!r}")


def pretty_print_program(prog: Program) -> str:
    return "\n".join(
        pretty_print(body) if name is None else f"{name} := {pretty_print(body)};"
        for name, body in prog.items()
    )
