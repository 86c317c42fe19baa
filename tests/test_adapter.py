"""Gated adapter: bypass identity, blend geometry, hand-checked backward."""

import numpy as np
import pytest

from xmtrack.adapter import (
    AdapterLayerWeights,
    adapt,
    adapt_with_cache,
    adapter_backward,
    apply_stack,
    gate_hidden_dim,
    layer_gate,
    random_adapter_stack,
    random_adapter_weights,
)
from xmtrack.state_switch import TriState
from xmtrack import verify


def test_gate_hidden_dim_floor():
    assert gate_hidden_dim(1) == 1
    assert gate_hidden_dim(4) == 1
    assert gate_hidden_dim(16) == 4
    assert gate_hidden_dim(64) == 16


def test_rgb_bypass_is_bit_identical():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = int(rng.integers(2, 12))
        w = random_adapter_weights(rng, d=d)
        f_sr = rng.normal(size=(int(rng.integers(1, 9)), d))
        f_dyn = rng.normal(size=(int(rng.integers(1, 5)), d))
        m = float(rng.random())
        out = adapt(f_sr, f_dyn, m, TriState.RGB, w)
        assert out.tobytes() == f_sr.tobytes()


def test_invalid_state_also_bypasses():
    rng = np.random.default_rng(1)
    w = random_adapter_weights(rng, d=6)
    f_sr = rng.normal(size=(4, 6))
    f_dyn = rng.normal(size=(2, 6))
    out = adapt(f_sr, f_dyn, 0.9, TriState.INVALID, w)
    assert out.tobytes() == f_sr.tobytes()


def test_nir_zero_modality_weight_keeps_input():
    """m = 0 makes the blend coefficient 0 even with the gate fully open."""
    rng = np.random.default_rng(2)
    d = 8
    w = random_adapter_weights(rng, d=d)
    # pin the gate to exactly 1: softmax logit margin of 80 underflows to [1, 0]
    w = AdapterLayerWeights(
        q_w=w.q_w, k_w=w.k_w, v_w=w.v_w,
        gate_w1=np.zeros_like(w.gate_w1), gate_b1=np.ones_like(w.gate_b1),
        gate_w2=np.zeros_like(w.gate_w2), gate_b2=np.array([40.0, -40.0]),
    )
    f_sr = rng.normal(size=(5, d))
    f_dyn = rng.normal(size=(3, d))
    assert layer_gate(f_sr, w) == 1.0
    out = adapt(f_sr, f_dyn, 0.0, TriState.NIR, w)
    np.testing.assert_allclose(out, f_sr, atol=1e-12)


def test_gate_is_a_probability():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = random_adapter_weights(rng, d=8)
        f_sr = rng.normal(size=(4, 8))
        g = layer_gate(f_sr, w)
        assert 0.0 < g < 1.0


def test_blend_stays_between_input_and_reference():
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = random_adapter_weights(rng, d=6)
        f_sr = rng.normal(size=(3, 6))
        f_dyn = rng.normal(size=(2, 6))
        m = float(rng.random())
        out, cache = adapt_with_cache(f_sr, f_dyn, m, TriState.NIR, w)
        lo = np.minimum(f_sr, cache.f_ref) - 1e-12
        hi = np.maximum(f_sr, cache.f_ref) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)


def test_singleton_template_attention_reproduces_projected_template():
    # one template token -> softmax over a single key is 1 -> f_ref rows are
    # all equal to the v-projection of that token
    rng = np.random.default_rng(5)
    d = 6
    w = random_adapter_weights(rng, d=d)
    f_sr = rng.normal(size=(4, d))
    f_dyn = rng.normal(size=(1, d))
    _, cache = adapt_with_cache(f_sr, f_dyn, 0.7, TriState.NIR, w)
    expected_row = f_dyn[0] @ cache.w.v_w.T if cache.w.v_w.shape[0] == d else None
    for row in cache.f_ref:
        np.testing.assert_allclose(row, cache.v[0], atol=1e-12)
    if expected_row is not None:
        np.testing.assert_allclose(cache.v[0], expected_row, atol=1e-12)


def test_hand_computed_gradients_on_scalar_toy():
    """d=1, one token each side, gate weights zeroed: everything is closed form.

    out = x + g*m*(c*y - x) with g = 0.5 (zero gate logits), single-key
    attention weight pinned at 1, so d out/dx = 1 - g*m, d out/dy = g*m*c,
    d out/dc (v_w) = g*m*y, and the attention projections q_w/k_w get zero
    gradient because the softmax over one key is constant.
    """
    x, y, a, b, c, m = 0.8, -1.3, 0.6, 1.1, 0.9, 0.65
    w = AdapterLayerWeights(
        q_w=np.array([[a]]), k_w=np.array([[b]]), v_w=np.array([[c]]),
        gate_w1=np.zeros((1, 1)), gate_b1=np.array([1.0]),
        gate_w2=np.zeros((2, 1)), gate_b2=np.zeros(2),
    )
    f_sr = np.array([[x]])
    f_dyn = np.array([[y]])
    out, cache = adapt_with_cache(f_sr, f_dyn, m, TriState.NIR, w)
    g = 0.5
    assert abs(cache.g - g) < 1e-15
    assert abs(out[0, 0] - (x + g * m * (c * y - x))) < 1e-12

    grads = adapter_backward(np.ones((1, 1)), cache)
    assert abs(grads.f_sr[0, 0] - (1.0 - g * m)) < 1e-12
    assert abs(grads.f_dyn[0, 0] - g * m * c) < 1e-12
    assert abs(grads.v_w[0, 0] - g * m * y) < 1e-12
    assert abs(grads.q_w[0, 0]) < 1e-15
    assert abs(grads.k_w[0, 0]) < 1e-15
    # gate logits move g by +/- p0*p1 = 0.25, scaled by h1 = relu(b1) = 1
    residual = c * y - x
    assert abs(grads.gate_w2[0, 0] - m * residual * 0.25) < 1e-12
    assert abs(grads.gate_w2[1, 0] + m * residual * 0.25) < 1e-12


def test_backward_through_bypass_is_gradient_passthrough():
    # the bypass is the identity map, so upstream flows through untouched and
    # every weight gradient is zero
    rng = np.random.default_rng(6)
    w = random_adapter_weights(rng, d=4)
    f_sr = rng.normal(size=(2, 4))
    f_dyn = rng.normal(size=(2, 4))
    _, cache = adapt_with_cache(f_sr, f_dyn, 0.5, TriState.RGB, w)
    up = rng.normal(size=(2, 4))
    grads = adapter_backward(up, cache)
    np.testing.assert_array_equal(grads.f_sr, up)
    np.testing.assert_array_equal(grads.f_dyn, np.zeros_like(f_dyn))
    assert np.all(grads.q_w == 0) and np.all(grads.gate_w2 == 0)


def test_backward_requires_a_cache():
    with pytest.raises(ValueError):
        adapter_backward(np.ones((2, 4)), None)


def test_gradients_pass_central_difference_across_seeds():
    for seed in range(12):
        assert verify.check_adapter(seed) < verify.GRAD_TOL


def test_apply_stack_composes_layers_in_order():
    rng = np.random.default_rng(7)
    stack = random_adapter_stack(rng, layers=3, d=5)
    f_sr = rng.normal(size=(4, 5))
    f_dyn = rng.normal(size=(2, 5))
    m = 0.8
    manual = f_sr
    for layer in stack.layers:
        manual = adapt(manual, f_dyn, m, TriState.NIR, layer)
    np.testing.assert_array_equal(
        apply_stack(f_sr, f_dyn, m, TriState.NIR, stack), manual
    )


def test_apply_stack_rgb_returns_input_unchanged():
    rng = np.random.default_rng(8)
    stack = random_adapter_stack(rng, layers=4, d=6)
    f_sr = rng.normal(size=(3, 6))
    f_dyn = rng.normal(size=(2, 6))
    out = apply_stack(f_sr, f_dyn, 0.4, TriState.RGB, stack)
    assert out.tobytes() == f_sr.tobytes()
