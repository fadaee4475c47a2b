"""Token counting, compression rate, and compressor-based density.

Tokens are the lexer's (`lambda_ir.Token`), deliberately independent
of any model tokenizer: one token per punctuation mark; identifiers,
integers, combinators, primitives and keywords count one each;
whitespace and comments never count.

The information-content proxy is raw DEFLATE (RFC 1951) at maximum
effort with no container framing, measured in output bytes.  The
pinned pseudo-random fixture generator is SplitMix64: each output is
the low 8 bits of successive draws.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from fractions import Fraction

from . import lambda_ir

DEFAULT_BOUND_CONSTANT = 16.0


def tokenize(source: str, dialect: str = "source") -> list[lambda_ir.Token]:
    """The lexer's tokens of `source` in the named dialect ("source" or "gael");
    a character outside the dialect raises the lexer's `ParseError` (line:col)."""
    return lambda_ir._lex(source, dialect)


def token_count(source: str, dialect: str = "source") -> int:
    return len(tokenize(source, dialect))


def compression_rate(s_tokens: int, p_tokens: int) -> Fraction:
    """1 - s/p as an exact rational; negative when the encoding expands."""
    if p_tokens == 0:
        raise ZeroDivisionError("original token count is zero")
    if s_tokens < 0 or p_tokens < 0:
        raise ValueError("token counts must be nonnegative")
    return 1 - Fraction(s_tokens, p_tokens)


def approx_kolmogorov(data: bytes) -> int:
    """Output length of raw DEFLATE at maximum effort, in bytes."""
    if not data:
        raise ValueError("empty input")
    compressor = zlib.compressobj(level=9, method=zlib.DEFLATED, wbits=-15)
    return len(compressor.compress(data) + compressor.flush())


@dataclass(frozen=True)
class DensityReport:
    byte_length: int
    k_approx: int
    rho: Fraction
    bound_slack: float
    c_constant: float

    def as_dict(self) -> dict:
        return {
            "byte_length": self.byte_length,
            "k_approx_bytes": self.k_approx,
            "rho": float(self.rho),
            "bound_slack_bytes": self.bound_slack,
            "c_constant": self.c_constant,
        }


def symbolic_density(data: bytes, c: float = DEFAULT_BOUND_CONSTANT) -> DensityReport:
    """Density rho = compressed bytes / raw bytes, with bound diagnostic.

    bound_slack = k - (|data| - c*log2|data|).  Nonnegative slack means
    the compressor respected the counting bound on this input; the
    check is meaningful only for near-incompressible data.  rho may
    exceed 1 on incompressible inputs (stream overhead); it is reported
    as-is, never clamped.
    """
    k = approx_kolmogorov(data)  # raises on empty input, before the constant is checked
    if not 0 <= c < math.inf:
        raise ValueError("bound constant must be finite and nonnegative")
    n = len(data)
    slack = k - (n - c * math.log2(n))
    return DensityReport(
        byte_length=n,
        k_approx=k,
        rho=Fraction(k, n),
        bound_slack=slack,
        c_constant=c,
    )


# --- pinned fixtures -----------------------------------------------------

_MASK64 = (1 << 64) - 1


def splitmix64_stream(seed: int):
    """SplitMix64: the pinned fixture PRNG. Yields 64-bit outputs."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4B7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def prng_bytes(seed: int, count: int) -> bytes:
    """`count` bytes: the low 8 bits of successive SplitMix64 outputs."""
    gen = splitmix64_stream(seed)
    return bytes(next(gen) & 0xFF for _ in range(count))
