"""Bidirectional mapping between combinator terms and controlled English.

Every sentence comes from a closed template table and carries an anchor
path into the term tree (0 = function side, 1 = argument side).  Leaf
nodes get one sentence each; every application spine gets one composed
sentence anchored at its topmost node.  The controlled grammar makes
the mapping exactly invertible: parsing rebuilds the term from the
anchors and validates the prose by re-explaining.

Serialized form, one sentence per line:

    [] the identity function applied to the integer 5
    [0] the identity function
    [1] the integer 5
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .lambda_ir import INT64_MAX, INT64_MIN, App, BoolLit, Comb, I, IntLit, K, Prim, S, Term, Var, spine

Path = tuple[int, ...]


class TemplateParseError(Exception):
    def __init__(self, index: int, message: str):
        super().__init__(f"sentence {index}: {message}")
        self.index = index


@dataclass(frozen=True)
class Sentence:
    anchor: Path
    text: str


@dataclass(frozen=True)
class ExplanationDoc:
    sentences: tuple[Sentence, ...]

    def to_text(self) -> str:
        return "\n".join(
            f"[{'.'.join(str(s) for s in sent.anchor)}] {sent.text}"
            for sent in self.sentences
        )

    @staticmethod
    def from_text(text: str) -> "ExplanationDoc":
        sentences = []
        for idx, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            m = re.fullmatch(r"\[([01](?:\.[01])*)?\] (.*)", line)
            if m is None:
                raise TemplateParseError(idx, f"malformed line {line!r}")
            path = tuple(int(p) for p in m.group(1).split(".")) if m.group(1) else ()
            sentences.append(Sentence(anchor=path, text=m.group(2)))
        return ExplanationDoc(sentences=tuple(sentences))


_COMBINATOR_TEXT = {
    S: "apply the first argument to the third and to the second applied to the third",
    K: "a constant function returning its first argument",
    I: "the identity function",
}

_PRIM_TEXT = {
    "add": "addition",
    "sub": "subtraction",
    "mul": "multiplication",
    "eq": "equality comparison",
    "if": "conditional choice",
    "addZ": "integer addition",
    "addR": "real addition",
}

_FIXED_LEAVES = {text: comb for comb, text in _COMBINATOR_TEXT.items()}
_FIXED_LEAVES.update({text: Prim(op) for op, text in _PRIM_TEXT.items()})

_INT_RE = re.compile(r"the integer (-?\d+)")
_BOOL_RE = re.compile(r"the boolean (true|false)")
_REF_RE = re.compile(r"the reference ([a-z][a-z0-9_]*)")


def _leaf_text(t: Term) -> str:
    match t:
        case Comb():
            return _COMBINATOR_TEXT[t]
        case Prim(op):
            return _PRIM_TEXT[op]
        case IntLit(v):
            return f"the integer {v}"
        case BoolLit(v):
            return f"the boolean {'true' if v else 'false'}"
        case Var(name):
            return f"the reference {name}"
    raise TypeError(f"not a leaf: {t!r}")


def _parse_leaf_text(text: str) -> Term | None:
    """The GAEL leaf `text` names: an integer in the 64-bit range, and a
    reference that is not a literal keyword."""
    if text in _FIXED_LEAVES:
        return _FIXED_LEAVES[text]
    if (m := _INT_RE.fullmatch(text)) and INT64_MIN <= int(m.group(1)) <= INT64_MAX:
        return IntLit(int(m.group(1)))
    if m := _BOOL_RE.fullmatch(text):
        return BoolLit(m.group(1) == "true")
    if (m := _REF_RE.fullmatch(text)) and m.group(1) not in ("true", "false"):
        return Var(m.group(1))
    return None


def explain_term(s: Term) -> ExplanationDoc:
    """Deterministic pre-order explanation with one anchor per leaf and
    one composed sentence per application spine."""
    sentences: list[Sentence | None] = []

    def build(t: Term, path: Path) -> str:
        """Add t's sentences in pre-order and return t's phrase."""
        if not isinstance(t, App):
            sentences.append(Sentence(anchor=path, text=_leaf_text(t)))
            return sentences[-1].text
        slot = len(sentences)
        sentences.append(None)  # the spine's sentence: its phrase, once its parts are phrased
        head, args = spine(t)
        k = len(args)
        parts = [build(head, path + (0,) * k)]
        for i, a in enumerate(args):
            phrase = build(a, path + (0,) * (k - 1 - i) + (1,))
            wrapped = f"({phrase})" if isinstance(a, App) else phrase
            parts.append(("applied to " if i == 0 else "and then to ") + wrapped)
        sentences[slot] = Sentence(anchor=path, text=" ".join(parts))
        return sentences[slot].text

    build(s, ())
    return ExplanationDoc(sentences=tuple(sentences))


def parse_explanation(doc: ExplanationDoc) -> Term:
    """Invert explain_term; raises TemplateParseError naming the first
    offending sentence index."""
    if not doc.sentences:
        raise TemplateParseError(0, "empty document")
    by_path: dict[Path, int] = {}
    for idx, sent in enumerate(doc.sentences):
        if sent.anchor in by_path:
            raise TemplateParseError(idx, f"duplicate anchor {sent.anchor}")
        by_path[sent.anchor] = idx
    prefixes = set()  # closed under prefixes, so each path stops at its first known prefix
    for path in by_path:
        for cut in range(len(path), -1, -1):
            if path[:cut] in prefixes:
                break
            prefixes.add(path[:cut])

    def rebuild(path: Path) -> Term:
        """The term at `path`, checked in pre-order: a loop walks a spine of any
        length down to its head; arguments, whose depth the parser bounds, recurse."""
        apps: list[Path] = []
        while True:
            idx = by_path.get(path)
            if idx is not None:
                text = doc.sentences[idx].text
                term = _parse_leaf_text(text)
                if term is not None:
                    break
                if " applied to " not in text:
                    raise TemplateParseError(idx, f"unknown template {text!r}")
                # composed spine sentence: structure comes from child anchors
            if path + (0,) not in prefixes or path + (1,) not in prefixes:
                anchor_idx = idx if idx is not None else 0
                raise TemplateParseError(anchor_idx, f"missing children under anchor {path}")
            apps.append(path)
            path += (0,)
        for app in reversed(apps):
            term = App(term, rebuild(app + (1,)))
        return term

    term = rebuild(())
    expected = explain_term(term)
    for idx, (got, want) in enumerate(zip(doc.sentences, expected.sentences)):
        if got != want:
            raise TemplateParseError(idx, f"expected {want.text!r}")
    if len(doc.sentences) != len(expected.sentences):
        raise TemplateParseError(
            min(len(doc.sentences), len(expected.sentences)),
            "document length does not match the term structure",
        )
    return term


def anchor_counts(s: Term) -> tuple[int, int]:
    """(leaf count, application-spine count) — the doc has their sum."""
    leaves = 0
    spines = 0

    def visit(t: Term, spine_top: bool) -> None:
        nonlocal leaves, spines
        if not isinstance(t, App):
            leaves += 1
            return
        if spine_top:
            spines += 1
        visit(t.fun, spine_top=False)
        visit(t.arg, spine_top=True)

    visit(s, spine_top=True)
    return leaves, spines
