"""Tensor primitives against naive oracles and frozen hand values."""

import numpy as np
import pytest

from xmtrack.core import (
    DegenerateInputError,
    ShapeError,
    adaptive_max_pool,
    attention,
    attention_pair,
    cosine_pair,
    cosine_similarity,
    grad_check,
    linear,
    linear_pair,
    matmul,
    matmul_pair,
    relu,
    relu_pair,
    scalar_sigmoid,
    sigmoid,
    sigmoid_pair,
    softmax,
    softmax_pair,
)


def naive_matmul(a, b):
    """Triple-loop reference, no BLAS."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, k, m = rng.integers(1, 7, size=3)
        a = rng.normal(size=(n, k))
        b = rng.normal(size=(k, m))
        np.testing.assert_allclose(matmul(a, b), naive_matmul(a, b), atol=1e-12)


def test_matmul_rejects_mismatched_inner_dims():
    with pytest.raises(ShapeError):
        matmul(np.ones((2, 3)), np.ones((2, 3)))


def test_matmul_associative_up_to_roundoff():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b, c = (rng.normal(size=(4, 4)) for _ in range(3))
        np.testing.assert_allclose(
            matmul(matmul(a, b), c), matmul(a, matmul(b, c)), atol=1e-10
        )


def test_linear_matches_manual_affine():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(4, 3))  # (out, in) layout
    b = rng.normal(size=4)
    np.testing.assert_allclose(linear(x, w, b), x @ w.T + b, atol=1e-12)


def test_relu_zeroes_negatives_only():
    x = np.array([-3.0, -0.0, 0.5, 7.0])
    np.testing.assert_array_equal(relu(x), [0.0, 0.0, 0.5, 7.0])


def test_sigmoid_midpoint_symmetry_and_saturation():
    assert sigmoid(np.array(0.0)) == 0.5
    x = np.linspace(-20, 20, 41)
    np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)
    # extreme logits must not overflow or produce NaN
    big = sigmoid(np.array([-800.0, 800.0]))
    assert np.all(np.isfinite(big))
    np.testing.assert_array_equal(big, [0.0, 1.0])


def test_softmax_normalizes_and_is_shift_invariant():
    rng = np.random.default_rng(3)
    for _ in range(15):
        v = rng.normal(size=6) * 10
        p = softmax(v)
        assert abs(p.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(softmax(v + 123.456), p, atol=1e-12)


def test_softmax_survives_huge_logits():
    np.testing.assert_array_equal(softmax(np.array([1000.0, 0.0])), [1.0, 0.0])


def naive_max_pool(x, out_hw):
    """Per-cell window loop: cell (i, j) is the max over its row and column windows."""
    c, n_h, n_w = x.shape
    h, w = out_hw
    out = np.empty((c, h, w))
    for i in range(h):
        r0, r1 = (i * n_h) // h, -((-(i + 1) * n_h) // h)
        for j in range(w):
            c0, c1 = (j * n_w) // w, -((-(j + 1) * n_w) // w)
            out[:, i, j] = x[:, r0:r1, c0:c1].max(axis=(1, 2))
    return out


def test_max_pool_matches_window_loop_bit_exactly():
    rng = np.random.default_rng(9)
    # includes overlapping windows (5 -> 3, 7 -> 4), the identity and 1x1
    for shape, out_hw in [
        ((3, 64, 64), (4, 4)),
        ((2, 5, 7), (3, 4)),
        ((1, 7, 5), (4, 3)),
        ((3, 9, 4), (4, 4)),
        ((2, 5, 7), (5, 7)),
        ((1, 6, 6), (1, 1)),
    ]:
        x = rng.normal(size=shape)
        np.testing.assert_array_equal(adaptive_max_pool(x, out_hw), naive_max_pool(x, out_hw))


def test_max_pool_on_ramp():
    x = np.arange(16.0).reshape(1, 4, 4)
    np.testing.assert_array_equal(
        adaptive_max_pool(x, (2, 2)), [[[5.0, 7.0], [13.0, 15.0]]]
    )


def test_pool_to_same_size_is_identity():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5, 7))
    np.testing.assert_array_equal(adaptive_max_pool(x, (5, 7)), x)


def test_pool_requires_chw_input():
    with pytest.raises(ShapeError):
        adaptive_max_pool(np.zeros((4, 4)), (2, 2))


def test_pool_handles_uneven_windows():
    # 1x1 output over a 3x3 input must cover every element exactly once
    x = np.arange(9.0).reshape(1, 3, 3)
    np.testing.assert_array_equal(adaptive_max_pool(x, (1, 1)), [[[8.0]]])


def test_attention_single_key_returns_value_rows():
    rng = np.random.default_rng(5)
    q = rng.normal(size=(6, 4))
    k = rng.normal(size=(1, 4))
    v = rng.normal(size=(1, 4))
    out = attention(q, k, v)
    for row in out:
        np.testing.assert_allclose(row, v[0], atol=1e-12)


def test_attention_uniform_when_all_scores_equal():
    q = np.zeros((3, 4))  # zero query -> identical scores -> uniform weights
    rng = np.random.default_rng(6)
    k = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 4))
    out = attention(q, k, v)
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (3, 1)), atol=1e-12)


def test_cosine_similarity_reference_points():
    assert abs(cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0]))) < 1e-15
    assert abs(cosine_similarity(np.array([2.0, 0.0]), np.array([5.0, 0.0])) - 1.0) < 1e-15
    assert abs(cosine_similarity(np.array([1.0, 1.0]), np.array([-1.0, -1.0])) + 1.0) < 1e-15


def test_cosine_similarity_rejects_zero_vector():
    with pytest.raises(DegenerateInputError):
        cosine_similarity(np.zeros(3), np.ones(3))


def test_grad_pairs_map_zero_upstream_to_zero_grads():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(5, 4))
    b = rng.normal(size=5)
    cases = [
        matmul_pair(x, w.T),
        linear_pair(x, w, b),
        relu_pair(x + 0.1),
        sigmoid_pair(x),
        softmax_pair(x),
        attention_pair(x, rng.normal(size=(2, 4)), rng.normal(size=(2, 4))),
        cosine_pair(x[0], x[1]),
    ]
    for pair in cases:
        upstream = np.zeros_like(np.asarray(pair.value))
        for g in pair.grad_fn(upstream):
            assert np.all(np.asarray(g) == 0.0)


def test_grad_check_accepts_correct_linear_gradient():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 3))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=4)

    def f(x_, w_, b_):
        pair = linear_pair(x_, w_, b_)
        loss = float(np.sum(pair.value**2))
        return loss, pair.grad_fn(2.0 * pair.value)

    assert grad_check(f, [x, w, b]) < 1e-6


def test_grad_check_flags_corrupted_gradient():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 3))

    def bad(x_):
        pair = relu_pair(x_ + 5.0)  # shifted away from the kink
        loss = float(np.sum(pair.value))
        (gx,) = pair.grad_fn(np.ones_like(pair.value))
        return loss, (gx + 0.25,)

    assert grad_check(bad, [x]) > 0.1


def test_scalar_sigmoid_matches_the_array_sigmoid_bit_for_bit():
    rng = np.random.default_rng(14)
    logits = [800.0, -800.0, np.inf, -np.inf, np.nan, 0.0, -0.0, *rng.normal(0.0, 20.0, 200).tolist()]
    for x in logits:
        assert scalar_sigmoid(x).hex() == float(sigmoid(np.array([x]))[0]).hex(), x
