import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skic import explainer as EX
from skic import lambda_ir as L
from skic import ski_core as SK

from conftest import gen_ski_term


def g(src: str) -> L.Term:
    return SK.parse_gael_program(src).main


def test_atom_sentences():
    doc = EX.explain_term(SK.I)
    assert len(doc.sentences) == 1
    assert doc.sentences[0].text == "the identity function"
    assert EX.explain_term(SK.K).sentences[0].text == (
        "a constant function returning its first argument"
    )


def test_application_headline():
    doc = EX.explain_term(g("I 5"))
    assert doc.sentences[0].text == "the identity function applied to the integer 5"
    assert doc.sentences[0].anchor == ()
    assert [s.anchor for s in doc.sentences] == [(), (0,), (1,)]


def test_specialized_primitive_templates():
    assert EX.explain_term(L.Prim("addZ")).sentences[0].text == "integer addition"
    assert EX.explain_term(L.Prim("addR")).sentences[0].text == "real addition"


def test_multi_argument_spine_sentence():
    doc = EX.explain_term(g("K 1 2"))
    assert doc.sentences[0].text == (
        "a constant function returning its first argument "
        "applied to the integer 1 and then to the integer 2"
    )


def test_nested_argument_parenthesized():
    doc = EX.explain_term(g("S (K I)"))
    assert doc.sentences[0].text == (
        "apply the first argument to the third and to the second applied to the third "
        "applied to (a constant function returning its first argument "
        "applied to the identity function)"
    )


def test_round_trip_atoms_and_small():
    for src in ["I", "K", "S", "I 5", "S K K", "S (K I)", "#addZ 1 2", "q0 true -3",
                "I 9223372036854775807 (-9223372036854775808) truth"]:
        term = g(src)
        assert EX.parse_explanation(EX.explain_term(term)) == term


def test_round_trip_random_terms():
    rng = random.Random(101)
    for _ in range(200):
        term = gen_ski_term(rng)
        assert EX.parse_explanation(EX.explain_term(term)) == term


def _ref_phrase(t: L.Term) -> str:
    if not isinstance(t, L.App):
        return EX._leaf_text(t)
    head, args = L.spine(t)
    parts = [_ref_phrase(head)]
    for i, a in enumerate(args):
        wrapped = f"({_ref_phrase(a)})" if isinstance(a, L.App) else _ref_phrase(a)
        parts.append(("applied to " if i == 0 else "and then to ") + wrapped)
    return " ".join(parts)


def _ref_explain(s: L.Term) -> EX.ExplanationDoc:
    """The explainer that phrases each spine's whole subtree again with
    `_ref_phrase`, the walk `explain_term`'s one pass replaced."""
    sentences = []

    def build(t: L.Term, path: EX.Path) -> None:
        if not isinstance(t, L.App):
            sentences.append(EX.Sentence(anchor=path, text=EX._leaf_text(t)))
            return
        sentences.append(EX.Sentence(anchor=path, text=_ref_phrase(t)))
        head, args = L.spine(t)
        k = len(args)
        build(head, path + (0,) * k)
        for i, a in enumerate(args):
            build(a, path + (0,) * (k - 1 - i) + (1,))

    build(s, ())
    return EX.ExplanationDoc(sentences=tuple(sentences))


gael_terms = st.recursive(
    st.one_of(
        st.sampled_from([SK.S, SK.K, SK.I, L.BoolLit(False)]),
        st.integers(-9, 9).map(L.IntLit),
        st.sampled_from(L.PRIM_OPS).map(L.Prim),
        st.sampled_from(["a", "q0"]).map(L.Var),
    ),
    lambda sub: st.builds(L.App, sub, sub),
    max_leaves=24,
)


def _nest(t: L.Term, depth: int) -> L.Term:
    """t as the innermost of `depth` spines, each an argument of the next."""
    for i in range(depth):
        t = L.App(SK.I, t) if i % 2 else L.apply_spine(SK.S, t, L.IntLit(i))
    return t


# the deep example is built in the test: Hypothesis prints an explicit
# example's arguments, and a term 600 deep overflows its printer
@settings(max_examples=300, deadline=None)
@given(gael_terms, st.integers(0, 3))
@example(L.Var("a"), 600)
def test_explain_term_matches_rephrasing_walk(inner, depth):
    term = _nest(inner, depth)
    assert EX.explain_term(term) == _ref_explain(term)


def test_round_trip_spine_longer_than_the_recursion_limit():
    t = L.apply_spine(L.S, *(L.IntLit(i) for i in range(sys.getrecursionlimit() + 500)))
    back = EX.parse_explanation(EX.explain_term(t))
    assert L.spine(back) == L.spine(t)  # `==` on the terms would recurse down `.fun`


def test_coverage_counts():
    rng = random.Random(103)
    for _ in range(100):
        term = gen_ski_term(rng)
        doc = EX.explain_term(term)
        leaves, spines = EX.anchor_counts(term)
        assert len(doc.sentences) == leaves + spines


def test_docs_deterministic_bytes():
    term = g("S (K #addZ) I 4")
    assert EX.explain_term(term).to_text() == EX.explain_term(term).to_text()


def test_serialization_round_trip():
    term = g("S (K #mul) (K 7) q1")
    doc = EX.explain_term(term)
    assert EX.ExplanationDoc.from_text(doc.to_text()) == doc
    assert EX.parse_explanation(EX.ExplanationDoc.from_text(doc.to_text())) == term


def test_golden_doc_text():
    doc = EX.explain_term(g("S (K I) 2"))
    assert doc.to_text() == "\n".join(
        [
            "[] apply the first argument to the third and to the second applied to "
            "the third applied to (a constant function returning its first argument "
            "applied to the identity function) and then to the integer 2",
            "[0.0] apply the first argument to the third and to the second applied to the third",
            "[0.1] a constant function returning its first argument "
            "applied to the identity function",
            "[0.1.0] a constant function returning its first argument",
            "[0.1.1] the identity function",
            "[1] the integer 2",
        ]
    )


def test_unknown_sentence_names_index():
    doc = EX.explain_term(g("I 5"))
    bad = EX.ExplanationDoc(
        sentences=(
            doc.sentences[0],
            EX.Sentence(anchor=(0,), text="the frobnicator"),
            doc.sentences[2],
        )
    )
    with pytest.raises(EX.TemplateParseError) as exc:
        EX.parse_explanation(bad)
    assert exc.value.index == 1


def test_tampered_headline_names_index():
    doc = EX.explain_term(g("I 5"))
    bad = EX.ExplanationDoc(
        sentences=(
            EX.Sentence(anchor=(), text="the identity function applied to the integer 6"),
            doc.sentences[1],
            doc.sentences[2],
        )
    )
    with pytest.raises(EX.TemplateParseError) as exc:
        EX.parse_explanation(bad)
    assert exc.value.index == 0


def test_missing_children_is_an_error():
    bad = EX.ExplanationDoc(
        sentences=(EX.Sentence(anchor=(), text="something applied to nothing"),)
    )
    with pytest.raises(EX.TemplateParseError):
        EX.parse_explanation(bad)


def test_empty_doc_is_an_error():
    with pytest.raises(EX.TemplateParseError):
        EX.parse_explanation(EX.ExplanationDoc(sentences=()))


def test_malformed_line_rejected():
    with pytest.raises(EX.TemplateParseError):
        EX.ExplanationDoc.from_text("not a doc line")


@pytest.mark.parametrize("text", [
    "the integer 9223372036854775808",
    "the integer -9223372036854775809",
    "the integer 100000000000000000000",
    "the reference true",
    "the reference false",
])
def test_leaf_outside_gael_is_an_unknown_template(text):
    # IntLit(10**20) and Var("true") print as GAEL text that fails to
    # parse or parses to another term, so the inverse rejects them
    doc = EX.explain_term(g("I 5"))
    bad = EX.ExplanationDoc(sentences=(doc.sentences[0], doc.sentences[1], EX.Sentence((1,), text)))
    with pytest.raises(EX.TemplateParseError, match="unknown template") as exc:
        EX.parse_explanation(bad)
    assert exc.value.index == 2


def _tampered(rng: random.Random, sents: tuple) -> tuple:
    """`sents` with one tampering: two sentences swapped, one deleted or
    duplicated, an anchor lengthened or shortened, or a text replaced by
    another sentence's."""
    sents, i = list(sents), rng.randrange(len(sents))
    kind = rng.randrange(6)
    if kind == 0:
        j = rng.randrange(len(sents))
        sents[i], sents[j] = sents[j], sents[i]
    elif kind == 1:
        del sents[i]
    elif kind == 2:
        sents.insert(rng.randrange(len(sents) + 1), sents[i])
    elif kind == 3:
        sents[i] = EX.Sentence(sents[i].anchor + (rng.randrange(2),), sents[i].text)
    elif kind == 4:
        sents[i] = EX.Sentence(sents[i].anchor[:-1], sents[i].text)
    else:
        sents[i] = EX.Sentence(sents[i].anchor, rng.choice(sents).text)
    return tuple(sents)


def test_tampered_documents_parse_only_to_their_own_term():
    rng = random.Random(7)
    outcomes = set()
    for _ in range(2000):
        doc = EX.ExplanationDoc(_tampered(rng, EX.explain_term(gen_ski_term(rng)).sentences))
        try:
            term = EX.parse_explanation(doc)
        except EX.TemplateParseError as exc:
            assert 0 <= exc.index <= len(doc.sentences)
            outcomes.add("rejected")
            continue
        assert EX.explain_term(term) == doc
        outcomes.add("accepted")
    assert outcomes == {"accepted", "rejected"}


def _rejected_at(sentences: list) -> int:
    with pytest.raises(EX.TemplateParseError) as exc:
        EX.parse_explanation(EX.ExplanationDoc(tuple(sentences)))
    return exc.value.index


def test_swapped_argument_subtrees_are_an_error():
    top, head, inner, inner_head, inner_arg, last = EX.explain_term(g("K (I 1) 2")).sentences
    assert last.anchor == (1,)
    assert _rejected_at([top, head, last, inner, inner_head, inner_arg]) == 2


def test_duplicated_anchor_is_an_error():
    top, head, arg = EX.explain_term(g("I 5")).sentences
    assert _rejected_at([top, head, head, arg]) == 2


def test_extra_trailing_sentence_is_an_error():
    sentences = EX.explain_term(g("I 5")).sentences
    assert _rejected_at([*sentences, sentences[-1]]) == 3


def test_spine_not_followed_by_its_head_is_an_error():
    top, head, arg = EX.explain_term(g("I 5")).sentences
    assert _rejected_at([top, arg, head]) == 1


def test_malformed_line_names_its_sentence_index():
    # blank lines take no sentence index: the bad line is the second sentence
    with pytest.raises(EX.TemplateParseError) as exc:
        EX.ExplanationDoc.from_text("[] the identity function\n\nbad line")
    assert exc.value.index == 1
