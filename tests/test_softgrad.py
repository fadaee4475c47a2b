import math

import numpy as np
import pytest

from skic import softgrad as SG


def pack(h, p):
    return np.concatenate([h.ravel(), p.w_q.ravel(), p.w_k.ravel(), p.w_v.ravel()])


def unpack(x, n, d):
    h = x[: n * d].reshape(n, d)
    r = x[n * d :].reshape(3, d, d)
    return h, SG.AttnParams(w_q=r[0], w_k=r[1], w_v=r[2])


def attention_loss_and_grad(n, d):
    def f(x):
        h, p = unpack(x, n, d)
        return float(SG.attention_forward(h, p).sum())

    def grad(x):
        h, p = unpack(x, n, d)
        grads = SG.attention_backward(h, p, np.ones((n, d)))
        return np.concatenate(
            [grads.d_h.ravel(), grads.d_w_q.ravel(), grads.d_w_k.ravel(), grads.d_w_v.ravel()]
        )

    return f, grad


# --- soft compression rate ------------------------------------------------------


def test_soft_cr_extremes():
    assert SG.soft_cr(SG.SoftKeepVector(np.ones(10))) == 0.0
    assert SG.soft_cr(SG.SoftKeepVector(np.zeros(10))) == 1.0


def test_soft_cr_matches_discrete_rate_on_indicator():
    keep = SG.SoftKeepVector(np.array([1.0] * 217 + [0.0] * 783))
    assert SG.soft_cr(keep) == 0.783


def test_soft_cr_gradient_constant():
    keep = SG.SoftKeepVector(np.linspace(0, 1, 8))
    np.testing.assert_allclose(SG.soft_cr_grad(keep), np.full(8, -1 / 8))


def test_soft_cr_empty_and_range_errors():
    with pytest.raises(ValueError, match="^empty keep vector$"):
        SG.SoftKeepVector(np.array([]))
    with pytest.raises(ValueError, match="^empty keep vector$"):
        SG.soft_cr_grad(SG.SoftKeepVector(np.array([])))
    with pytest.raises(ValueError):
        SG.SoftKeepVector(np.array([1.5]))


def test_soft_cr_gradient_exact_vs_finite_differences():
    probs = SG.prng_uniform(3, 12) * 0.5 + 0.5

    def f(x):
        return SG.soft_cr(SG.SoftKeepVector(x))

    def grad(x):
        return SG.soft_cr_grad(SG.SoftKeepVector(x))

    assert SG.finite_diff_check(f, grad, probs) <= 1e-10


# --- attention forward ------------------------------------------------------------


def test_single_row_degenerates_to_value_projection():
    h, params = SG.fixture_case(11, 1, 3)
    out = SG.attention_forward(h, params)
    np.testing.assert_allclose(out, h @ params.w_v, atol=1e-14)


def test_zero_queries_give_uniform_attention():
    h, params = SG.fixture_case(13, 5, 3)
    zero = SG.AttnParams(
        w_q=np.zeros((3, 3)), w_k=np.zeros((3, 3)), w_v=params.w_v
    )
    out = SG.attention_forward(h, zero)
    mean_row = (h @ params.w_v).mean(axis=0)
    for row in out:
        np.testing.assert_allclose(row, mean_row, atol=1e-14)


def _loop_oracle(h, p):
    n, d = h.shape
    q = [[sum(h[i][a] * p.w_q[a][b] for a in range(d)) for b in range(d)] for i in range(n)]
    k = [[sum(h[i][a] * p.w_k[a][b] for a in range(d)) for b in range(d)] for i in range(n)]
    v = [[sum(h[i][a] * p.w_v[a][b] for a in range(d)) for b in range(d)] for i in range(n)]
    out = []
    for i in range(n):
        scores = [sum(q[i][a] * k[j][a] for a in range(d)) / math.sqrt(d) for j in range(n)]
        mx = max(scores)
        es = [math.exp(s - mx) for s in scores]
        z = sum(es)
        w = [e / z for e in es]
        out.append([sum(w[j] * v[j][b] for j in range(n)) for b in range(d)])
    return np.array(out)


def _load_fixture_file(path):
    sections = {}
    current = None
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        if line[0].isalpha():
            current = line.strip()
            sections[current] = []
        else:
            sections[current].append([float(v) for v in line.split()])
    return {name: np.array(rows) for name, rows in sections.items()}


def test_forward_matches_plaintext_golden_file():
    from pathlib import Path

    fx = _load_fixture_file(Path(__file__).parent / "fixtures" / "attention_seed7.txt")
    params = SG.AttnParams(w_q=fx["W_Q"], w_k=fx["W_K"], w_v=fx["W_V"])
    out = SG.attention_forward(fx["H"], params)
    np.testing.assert_allclose(out, fx["OUT"], atol=1e-12)
    # the file's matrices are exactly the pinned seed-7 stream
    h, pinned = SG.fixture_case(7, 4, 3)
    np.testing.assert_array_equal(fx["H"], h)
    np.testing.assert_array_equal(fx["W_V"], pinned.w_v)


def test_forward_matches_loop_oracle_fixture():
    h, params = SG.fixture_case(7, 4, 3)
    out = SG.attention_forward(h, params)
    np.testing.assert_allclose(out, _loop_oracle(h, params), atol=1e-12)
    # spot golden values from the pinned seed-7 fixture
    np.testing.assert_allclose(
        out[0], [-0.44801456, -0.78342871, 0.08343901], atol=1e-8
    )


def test_softmax_rows_sum_to_one():
    for seed in range(5):
        h, params = SG.fixture_case(seed, 4, 4)
        q = h @ params.w_q
        k = h @ params.w_k
        rows = SG._softmax_rows(q @ k.T / 2.0)
        np.testing.assert_allclose(rows.sum(axis=1), np.ones(4), atol=1e-12)


def test_outputs_within_value_range():
    for seed in range(8):
        h, params = SG.fixture_case(seed * 3 + 1, 5, 3)
        out = SG.attention_forward(h, params)
        v = h @ params.w_v
        for col in range(3):
            assert out[:, col].min() >= v[:, col].min() - 1e-12
            assert out[:, col].max() <= v[:, col].max() + 1e-12


def test_forward_shape_errors():
    h, params = SG.fixture_case(1, 3, 3)
    with pytest.raises(SG.ShapeMismatchError):
        SG.attention_forward(h[:, :2], params)
    with pytest.raises(SG.ShapeMismatchError):
        SG.AttnParams(w_q=np.zeros((2, 3)), w_k=np.zeros((3, 3)), w_v=np.zeros((3, 3)))


# --- attention backward --------------------------------------------------------------


def test_zero_upstream_zero_gradients():
    h, params = SG.fixture_case(17, 4, 3)
    grads = SG.attention_backward(h, params, np.zeros((4, 3)))
    for m in (grads.d_h, grads.d_w_q, grads.d_w_k, grads.d_w_v):
        np.testing.assert_allclose(m, 0.0, atol=0.0)


def test_single_row_backward_closed_form():
    # n=1: out = h Wv, so d(sum)/dWv = h^T 1, d(sum)/dh = 1 Wv^T, Wq/Wk free
    h, params = SG.fixture_case(19, 1, 3)
    up = np.ones((1, 3))
    grads = SG.attention_backward(h, params, up)
    np.testing.assert_allclose(grads.d_w_v, h.T @ up, atol=1e-12)
    np.testing.assert_allclose(grads.d_h, up @ params.w_v.T, atol=1e-12)
    np.testing.assert_allclose(grads.d_w_q, 0.0, atol=1e-12)
    np.testing.assert_allclose(grads.d_w_k, 0.0, atol=1e-12)


def test_backward_matches_finite_differences_over_seeded_fixtures():
    for seed in range(100, 120):
        n = 1 + seed % 6
        d = 1 + seed % 4
        h, params = SG.fixture_case(seed, n, d)
        f, grad = attention_loss_and_grad(n, d)
        err = SG.finite_diff_check(f, grad, pack(h, params))
        assert err <= 1e-5, (seed, n, d, err)


def test_backward_shape_error():
    h, params = SG.fixture_case(29, 4, 3)
    with pytest.raises(SG.ShapeMismatchError):
        SG.attention_backward(h, params, np.ones((3, 3)))


def test_backward_rejects_zero_rows_as_forward_does():
    _, params = SG.fixture_case(31, 1, 3)
    empty = np.zeros((0, 3))
    with pytest.raises(SG.ShapeMismatchError, match="^input must have at least one row$"):
        SG.attention_forward(empty, params)
    with pytest.raises(SG.ShapeMismatchError, match="^input must have at least one row$"):
        SG.attention_backward(empty, params, empty)


# --- finite differences ---------------------------------------------------------------


def test_finite_diff_quadratic():
    f = lambda x: float(x[0] ** 2)
    grad = lambda x: np.array([2.0 * x[0]])
    assert SG.finite_diff_check(f, grad, np.array([3.0])) <= 1e-9


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ValueError):
        SG.finite_diff_check(lambda x: 0.0, lambda x: x, np.array([1.0]), eps=0.0)


def test_finite_diff_detects_wrong_gradient():
    f = lambda x: float(x[0] ** 2)
    wrong = lambda x: np.array([3.0 * x[0]])
    assert SG.finite_diff_check(f, wrong, np.array([3.0])) > 0.1
