"""Differentiable compression factor and a toy attention compressor.

The keep-probability relaxation makes the token compression rate
differentiable: soft_cr(p) = 1 - mean(p), which coincides with the
discrete rate on 0/1 indicator vectors.  The attention map is the
paper's scaled dot-product form, its scores always divided by sqrt(d),

    out = softmax(H Wq (H Wk)^T / sqrt(d)) (H Wv)

with analytic forward/backward passes and a central-finite-difference
checker.  No training loop lives here; only correctness of the maps
and their gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metrics import splitmix64_stream


class ShapeMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class AttnParams:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    def __post_init__(self):
        d = self.w_q.shape[0]
        for name, m in (("w_q", self.w_q), ("w_k", self.w_k), ("w_v", self.w_v)):
            if m.ndim != 2 or m.shape != (d, d):
                raise ShapeMismatchError(f"{name} must be {d}x{d}, got {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def d(self) -> int:
        return self.w_q.shape[0]


@dataclass(frozen=True)
class SoftKeepVector:
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1:
            raise ShapeMismatchError("keep probabilities must be a vector")
        if p.size == 0:
            raise ValueError("empty keep vector")
        if p.min() < 0.0 or p.max() > 1.0:
            raise ValueError("keep probabilities must lie in [0, 1]")
        object.__setattr__(self, "probs", p)


def soft_cr(keep: SoftKeepVector) -> float:
    """1 - mean(keep); exact compression rate on 0/1 indicators."""
    return 1.0 - float(keep.probs.mean())


def soft_cr_grad(keep: SoftKeepVector) -> np.ndarray:
    """Constant gradient -1/n per position."""
    n = keep.probs.size
    return np.full(n, -1.0 / n)


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _attention(h: np.ndarray, params: AttnParams) -> tuple[np.ndarray, ...]:
    """q, k, v and the attention weights of a checked input."""
    if h.ndim != 2 or h.shape[1] != params.d:
        raise ShapeMismatchError(f"input must be n x {params.d}, got {h.shape}")
    if h.shape[0] < 1:
        raise ShapeMismatchError("input must have at least one row")
    q = h @ params.w_q
    k = h @ params.w_k
    v = h @ params.w_v
    return q, k, v, _softmax_rows(q @ k.T / np.sqrt(params.d))


def attention_forward(h: np.ndarray, params: AttnParams) -> np.ndarray:
    """Row-wise attention: each output row is a convex combination of
    the value rows."""
    _, _, v, attn = _attention(h, params)
    return attn @ v


@dataclass(frozen=True)
class AttnGradients:
    d_h: np.ndarray
    d_w_q: np.ndarray
    d_w_k: np.ndarray
    d_w_v: np.ndarray


def attention_backward(h: np.ndarray, params: AttnParams, upstream: np.ndarray) -> AttnGradients:
    """Analytic gradients of attention_forward contracted with upstream."""
    q, k, v, attn = _attention(h, params)
    if upstream.shape != h.shape:
        raise ShapeMismatchError(
            f"upstream must match output shape {h.shape}, got {upstream.shape}"
        )

    d_v = attn.T @ upstream
    d_attn = upstream @ v.T
    d_scores = attn * (d_attn - (attn * d_attn).sum(axis=1, keepdims=True)) / np.sqrt(params.d)
    d_q = d_scores @ k
    d_k = d_scores.T @ q
    d_w_q = h.T @ d_q
    d_w_k = h.T @ d_k
    d_w_v = h.T @ d_v
    d_h = d_q @ params.w_q.T + d_k @ params.w_k.T + d_v @ params.w_v.T
    return AttnGradients(d_h=d_h, d_w_q=d_w_q, d_w_k=d_w_k, d_w_v=d_w_v)


def finite_diff_check(
    f: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    point: np.ndarray,
    eps: float = 1e-5,
) -> float:
    """Max relative error of `grad` against central differences of `f`.

    The relative-error denominator is max(|analytic|, 1e-8) per
    coordinate.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    point = np.asarray(point, dtype=float)
    analytic = np.asarray(grad(point), dtype=float)
    if analytic.shape != point.shape:
        raise ShapeMismatchError("gradient shape must match the point")
    worst = 0.0
    flat = point.ravel()
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = eps
        hi = f((flat + bump).reshape(point.shape))
        lo = f((flat - bump).reshape(point.shape))
        numeric = (hi - lo) / (2.0 * eps)
        a = analytic.ravel()[i]
        err = abs(numeric - a) / max(abs(a), 1e-8)
        worst = max(worst, err)
    return worst


# --- pinned pseudorandom fixtures ------------------------------------------


def prng_uniform(seed: int, count: int) -> np.ndarray:
    """`count` doubles in [-1, 1) from the pinned SplitMix64 stream."""
    gen = splitmix64_stream(seed)
    vals = [((next(gen) >> 11) * 2.0**-53) * 2.0 - 1.0 for _ in range(count)]
    return np.array(vals)


def fixture_case(seed: int, n: int, d: int) -> tuple[np.ndarray, AttnParams]:
    """Input matrix and parameters drawn sequentially from one stream."""
    flat = prng_uniform(seed, n * d + 3 * d * d)
    h = flat[: n * d].reshape(n, d)
    rest = flat[n * d :].reshape(3, d, d)
    return h, AttnParams(w_q=rest[0], w_k=rest[1], w_v=rest[2])
