"""Bidirectional mapping between combinator terms and controlled English.

Every sentence comes from a closed template table and carries an anchor
path into the term tree (0 = function side, 1 = argument side).  Leaf
nodes get one sentence each; every application spine gets one composed
sentence anchored at its topmost node.  The controlled grammar makes
the mapping exactly invertible: parsing reads the sentences back in the
same pre-order and validates the prose by re-explaining.

Serialized form, one sentence per line:

    [] the identity function applied to the integer 5
    [0] the identity function
    [1] the integer 5
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .lambda_ir import INT64_MAX, INT64_MIN, App, BoolLit, I, IntLit, K, Prim, S, Term, Var, spine

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
        for line in text.splitlines():
            if not line.strip():
                continue
            m = re.fullmatch(r"\[([01](?:\.[01])*)?\] (.*)", line)
            if m is None:
                raise TemplateParseError(len(sentences), f"malformed line {line!r}")
            path = tuple(int(p) for p in m.group(1).split(".")) if m.group(1) else ()
            sentences.append(Sentence(anchor=path, text=m.group(2)))
        return ExplanationDoc(sentences=tuple(sentences))


_FIXED_TEXT = {
    S: "apply the first argument to the third and to the second applied to the third",
    K: "a constant function returning its first argument",
    I: "the identity function",
    Prim("add"): "addition",
    Prim("sub"): "subtraction",
    Prim("mul"): "multiplication",
    Prim("eq"): "equality comparison",
    Prim("if"): "conditional choice",
    Prim("addZ"): "integer addition",
    Prim("addR"): "real addition",
}
_FIXED_LEAVES = {text: leaf for leaf, text in _FIXED_TEXT.items()}

_INT_RE = re.compile(r"the integer (-?\d+)")
_BOOL_RE = re.compile(r"the boolean (true|false)")
_REF_RE = re.compile(r"the reference ([a-z][a-z0-9_]*)")


def _leaf_text(t: Term) -> str:
    if t in _FIXED_TEXT:
        return _FIXED_TEXT[t]
    match t:
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
    """Invert explain_term, reading the sentences in the pre-order it writes
    them; raises TemplateParseError naming the first offending sentence index."""
    sents = doc.sentences
    if not sents:
        raise TemplateParseError(0, "empty document")
    pos = 0

    def read(path: Path, leaf: bool = False) -> Term:
        """The term whose sentences start at `pos`, anchored at `path`: a spine's
        sentence, its head's and its arguments' in turn.  A loop walks a spine of
        any length; arguments, whose depth the parser bounds, recurse."""
        nonlocal pos
        at = pos
        if at == len(sents) or sents[at].anchor != path:
            raise TemplateParseError(at, f"expected a sentence at anchor {path}")
        pos += 1
        term = _parse_leaf_text(sents[at].text)
        if term is not None:
            return term
        if leaf or " applied to " not in sents[at].text:
            raise TemplateParseError(at, f"unknown {'leaf' if leaf else 'template'} {sents[at].text!r}")
        head = sents[pos].anchor if pos < len(sents) else path
        k = len(head) - len(path)
        if k < 1 or head != path + (0,) * k:
            raise TemplateParseError(pos, f"expected the head of the spine at anchor {path}")
        term = read(head, leaf=True)
        for j in range(k):
            term = App(term, read(path + (0,) * (k - 1 - j) + (1,)))
        return term

    term = read(())
    expected = explain_term(term)
    for idx, (got, want) in enumerate(zip(sents, expected.sentences)):
        if got != want:
            raise TemplateParseError(idx, f"expected {want.text!r}")
    if len(sents) != len(expected.sentences):
        raise TemplateParseError(
            min(len(sents), len(expected.sentences)),
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
