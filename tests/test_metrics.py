from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skic import lambda_ir as L
from skic import metrics as M

# Golden values from the pinned reference compressor (raw DEFLATE,
# level 9) and the pinned SplitMix64 fixture stream.
GOLDEN_REPEATED_4096 = 22
GOLDEN_PRNG_4096 = 4101
GOLDEN_ONE_BYTE = 3
GOLDEN_PRNG_FIRST_8 = [174, 201, 153, 177, 95, 56, 41, 120]
GOLDEN_SPLITMIX_FIRST = 6750856300299513006


# --- tokenizer -----------------------------------------------------------------


def test_tokenize_source_example():
    toks = M.tokenize(r"\x. #add x 1")
    assert [t.text for t in toks] == ["\\", "x", ".", "#add", "x", "1"]
    assert len(toks) == M.token_count(r"\x. #add x 1") == 6


def test_tokenize_gael_example():
    assert M.token_count("S (K I)", "gael") == 5


def test_tokenize_empty():
    assert M.tokenize("") == []


def test_tokenize_classes():
    toks = M.tokenize("f := #add 1 true; -- note\nf 2", "source")
    kinds = [t.kind for t in toks]
    assert kinds == ["ident", "punct", "prim", "int", "keyword", "punct", "ident", "int"]


def test_tokenize_combinators_only_in_gael():
    assert M.tokenize("S K I", "gael")[0].kind == "comb"
    with pytest.raises(L.ParseError):
        M.tokenize("S K I", "source")


def test_tokenize_negative_integer_one_token():
    toks = M.tokenize("#sub 5 -2")
    assert [t.text for t in toks] == ["#sub", "5", "-2"]


def test_lex_error_offset():
    with pytest.raises(L.ParseError) as exc:
        M.tokenize("ab ?")
    assert (exc.value.line, exc.value.column) == (1, 4)


def test_lex_error_offset_counts_earlier_lines():
    with pytest.raises(L.ParseError) as exc:
        M.tokenize("ab -- c\n  #", "gael")
    assert (exc.value.line, exc.value.column) == (2, 3)
    assert str(exc.value) == "2:3: expected primitive name after '#'"


# `index` is the 0-based position of the rejected character on line 1
@pytest.mark.parametrize("source,index", [("#add 1 \u00b2", 7), ("caf\u00e9 := 1;\ncaf\u00e9", 3)])
@pytest.mark.parametrize("dialect", ["source", "gael"])
def test_lex_error_offset_of_non_ascii(source, index, dialect):
    with pytest.raises(L.ParseError) as exc:
        M.tokenize(source, dialect)
    assert (exc.value.line, exc.value.column) == (1, index + 1)


def test_tokenizer_idempotent_on_rejoin():
    for dialect, text in [
        ("source", "f := \\x. #add x -2;\nf true"),
        ("gael", "q0 := S (K #addZ) I;\nq0 3 false"),
    ]:
        toks = M.tokenize(text, dialect)
        again = M.tokenize(" ".join(t.text for t in toks), dialect)
        assert [(t.kind, t.text) for t in again] == [(t.kind, t.text) for t in toks]


def test_tokenizer_deterministic():
    text = r"\x. #mul x 3"
    assert M.tokenize(text) == M.tokenize(text)


# --- compression rate -------------------------------------------------------------


def test_cr_paper_value_exact():
    cr = M.compression_rate(217, 1000)
    assert cr == Fraction(783, 1000)
    assert float(cr) == 0.783


def test_cr_identity_and_expansion():
    assert M.compression_rate(7, 7) == 0
    assert M.compression_rate(14, 7) == -1


def test_cr_zero_division():
    with pytest.raises(ZeroDivisionError):
        M.compression_rate(1, 0)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_cr_algebra_exact(a, b):
    assert M.compression_rate(a, b) == 1 - Fraction(a, b)


# --- Kolmogorov proxy --------------------------------------------------------------


def test_repeated_fixture_golden():
    k = M.approx_kolmogorov(b"a" * 4096)
    assert k == GOLDEN_REPEATED_4096
    assert k <= 64


def test_prng_fixture_golden():
    k = M.approx_kolmogorov(M.prng_bytes(42, 4096))
    assert k == GOLDEN_PRNG_4096
    assert k >= 3700


def test_one_byte_golden():
    assert M.approx_kolmogorov(b"a") == GOLDEN_ONE_BYTE


def test_empty_input_error():
    with pytest.raises(ValueError):
        M.approx_kolmogorov(b"")
    with pytest.raises(ValueError):
        M.symbolic_density(b"")
    with pytest.raises(ValueError, match="^empty input$"):  # reported before the bad constant
        M.symbolic_density(b"", c=float("nan"))


def test_splitmix_stream_pinned():
    gen = M.splitmix64_stream(42)
    assert next(gen) == GOLDEN_SPLITMIX_FIRST
    assert list(M.prng_bytes(42, 8)) == GOLDEN_PRNG_FIRST_8


# --- density -------------------------------------------------------------------------


def test_density_repeated():
    rep = M.symbolic_density(b"a" * 4096)
    assert rep.rho <= Fraction(5, 100)
    assert rep.byte_length == 4096
    assert rep.rho * rep.byte_length == rep.k_approx  # exact identity


def test_density_prng_bound():
    rep = M.symbolic_density(M.prng_bytes(42, 4096))
    assert rep.rho >= Fraction(9, 10)
    assert rep.bound_slack >= 0.0
    assert rep.c_constant == 16.0


def test_density_slack_formula():
    import math

    data = M.prng_bytes(7, 1024)
    rep = M.symbolic_density(data, c=4.0)
    expected = rep.k_approx - (1024 - 4.0 * math.log2(1024))
    assert rep.bound_slack == expected


def test_density_monotone_under_self_concat():
    for pattern in [b"a" * 2048, b"abcabc" * 300, bytes(range(64)) * 16]:
        one = M.symbolic_density(pattern)
        two = M.symbolic_density(pattern + pattern)
        assert float(two.rho) <= float(one.rho) + 0.02


def test_density_allows_rho_above_one():
    rep = M.symbolic_density(M.prng_bytes(42, 4096))
    assert rep.rho > 1  # header overhead on incompressible input; not clamped


@pytest.mark.parametrize("c", [-1.0, float("nan"), float("inf")])
def test_density_rejects_non_finite_or_negative_c(c):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        M.symbolic_density(b"abc", c=c)
