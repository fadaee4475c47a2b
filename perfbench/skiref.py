"""Reference GAEL reader and SKI evaluator, independent of skic.

The benchmark checks emitted programs with this module instead of
skic's own reducer: GAEL text is parsed here, applied to integer
arguments, and reduced lazily with sharing until the result is an
integer or a boolean.

Graph nodes are lists so a reduced redex can be overwritten in place:
    ["A", fun, arg]  application      ["N", int]   integer
    ["B", bool]      boolean          ["C", "S"|"K"|"I"]
    ["P", op]        primitive        ["R", name]  definition reference
    ["V", node]      indirection to the node a redex reduced to
"""

from __future__ import annotations

import re

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
STEP_LIMIT = 1_000_000

_TOKEN = re.compile(r"\s*(?:(:=)|([();])|(-?\d+)|(#[A-Za-z_]\w*)|([A-Za-z_]\w*))")
_ARITY = {"add": 2, "addZ": 2, "addR": 2, "sub": 2, "mul": 2, "eq": 2, "if": 3}


class EvalFailure(Exception):
    """The emitted program did not reduce to a first-order value."""


def tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = re.sub(r"--[^\n]*", "", text)
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        m = _TOKEN.match(text, pos)
        if m is None:
            raise EvalFailure(f"unreadable GAEL at offset {pos}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


def parse(text: str) -> tuple[dict, list]:
    """GAEL program text -> (definition table, main node)."""
    toks = tokens(text)
    pos = 0

    def atom():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            node = term()
            if toks[pos] != ")":
                raise EvalFailure("expected ')'")
            pos += 1
            return node
        if tok in ("S", "K", "I"):
            return ["C", tok]
        if tok in ("true", "false"):
            return ["B", tok == "true"]
        if tok.startswith("#"):
            if tok[1:] not in _ARITY:
                raise EvalFailure(f"unknown primitive {tok}")
            return ["P", tok[1:]]
        if tok.lstrip("-").isdigit():
            return ["N", int(tok)]
        return ["R", tok]

    def term():
        node = atom()
        while pos < len(toks) and toks[pos] not in (")", ";"):
            node = ["A", node, atom()]
        return node

    defs: dict = {}
    main = None
    while pos < len(toks):
        if pos + 1 < len(toks) and toks[pos + 1] == ":=":
            name = toks[pos]
            pos += 2
            defs[name] = term()
            if toks[pos] != ";":
                raise EvalFailure("expected ';'")
            pos += 1
        else:
            main = term()
            if pos != len(toks):
                raise EvalFailure("trailing input after main")
    if main is None:
        raise EvalFailure("program has no main term")
    return defs, main


class Evaluator:
    """Lazy graph reduction of one parsed GAEL program."""

    def __init__(self, defs: dict):
        self.defs = defs
        self.steps = 0

    def run(self, main: list, args: tuple[int, ...]):
        node = main
        for a in args:
            node = ["A", node, ["N", a]]
        value = self.whnf(node)
        if value[0] == "N":
            return value[1]
        if value[0] == "B":
            return value[1]
        raise EvalFailure("result is not an integer or a boolean")

    def _tick(self):
        self.steps += 1
        if self.steps > STEP_LIMIT:
            raise EvalFailure("step limit exceeded")

    def whnf(self, node: list) -> list:
        spine: list = []
        cur = node
        while True:
            tag = cur[0]
            if tag == "V":
                cur = cur[1]
            elif tag == "A":
                spine.append(cur)
                cur = cur[1]
            elif tag == "R":
                if cur[1] not in self.defs:
                    raise EvalFailure(f"unbound reference {cur[1]}")
                cur = self.defs[cur[1]]
            elif tag == "C":
                need = {"I": 1, "K": 2, "S": 3}[cur[1]]
                if len(spine) < need:
                    return self._stuck(cur, spine)
                self._tick()
                root = spine[-need]
                if cur[1] == "I":
                    root[:] = ["V", spine[-1][2]]
                elif cur[1] == "K":
                    root[:] = ["V", spine[-1][2]]
                else:
                    x, y, z = spine[-1][2], spine[-2][2], spine[-3][2]
                    root[:] = ["A", ["A", x, z], ["A", y, z]]
                del spine[len(spine) - need :]
                cur = root
            elif tag == "P":
                op = cur[1]
                need = _ARITY[op]
                if len(spine) < need:
                    return self._stuck(cur, spine)
                self._tick()
                root = spine[-need]
                operands = [spine[-1 - i][2] for i in range(need)]
                if op == "if":
                    cond = self.whnf(operands[0])
                    if cond[0] != "B":
                        raise EvalFailure("#if condition is not a boolean")
                    root[:] = ["V", operands[1] if cond[1] else operands[2]]
                else:
                    a, b = self.whnf(operands[0]), self.whnf(operands[1])
                    if a[0] != "N" or b[0] != "N":
                        raise EvalFailure(f"#{op} operand is not an integer")
                    root[:] = self._delta(op, a[1], b[1])
                del spine[len(spine) - need :]
                cur = root
            else:  # a literal
                if spine:
                    raise EvalFailure("literal applied to an argument")
                return cur

    def _stuck(self, head: list, spine: list) -> list:
        return spine[0] if spine else head

    @staticmethod
    def _delta(op: str, a: int, b: int) -> list:
        if op == "eq":
            return ["B", a == b]
        if op == "sub":
            v = a - b
        elif op == "mul":
            v = a * b
        else:
            v = a + b
        if not INT64_MIN <= v <= INT64_MAX:
            raise EvalFailure(f"#{op} overflows 64 bits")
        return ["N", v]


def check_program(gael_text: str, expected) -> list[str]:
    """Evaluate emitted GAEL on each (args, value) pair; return mismatches."""
    parse(gael_text)  # unreadable text fails even without sample tuples
    problems = []
    for args, want in expected:
        # a fresh parse per tuple keeps one tuple's in-place updates out of
        # the next; sharing within one tuple is what makes it fast
        defs, main = parse(gael_text)
        try:
            got = Evaluator(defs).run(main, args)
        except EvalFailure as exc:
            problems.append(f"{args}: {exc}")
            continue
        if type(got) is not type(want) or got != want:
            problems.append(f"{args}: got {got!r}, expected {want!r}")
    return problems
