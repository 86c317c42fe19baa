"""Gated adapter: bypass identity, blend geometry, hand-checked backward."""

import numpy as np
import pytest

import gate_oracle
from xmtrack.adapter import (
    WEIGHT_NAMES,
    AdapterLayerWeights,
    AdapterStack,
    adapter_pair,
    apply_stack,
    gate_hidden_dim,
    random_adapter_stack,
    random_adapter_weights,
)
from xmtrack.core import ShapeError, attention_pair
from xmtrack.state_switch import TriState
from xmtrack import verify


def _reference(f_sr, f_dyn, w):
    """f_ref of the NIR path, straight from attention_pair."""
    return attention_pair(f_sr @ w.q_w.T, f_dyn @ w.k_w.T, f_dyn @ w.v_w.T).value


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
        out = adapter_pair(f_sr, f_dyn, m, TriState.RGB, w).value
        assert out.tobytes() == f_sr.tobytes()


def test_invalid_state_also_bypasses():
    rng = np.random.default_rng(1)
    w = random_adapter_weights(rng, d=6)
    f_sr = rng.normal(size=(4, 6))
    f_dyn = rng.normal(size=(2, 6))
    out = adapter_pair(f_sr, f_dyn, 0.9, TriState.INVALID, w).value
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
    assert gate_oracle.gate(f_sr, w) == 1.0
    out = adapter_pair(f_sr, f_dyn, 0.0, TriState.NIR, w).value
    np.testing.assert_allclose(out, f_sr, atol=1e-12)


def test_gate_is_a_probability():
    rng = np.random.default_rng(3)
    dyn_rng = np.random.default_rng(30)  # its own stream, so rng alone picks the gate cases
    for _ in range(20):
        w = random_adapter_weights(rng, d=8)
        f_sr = rng.normal(size=(4, 8))
        g = gate_oracle.gate(f_sr, w)
        assert 0.0 < g < 1.0
        # the adapter blends with this gate: at m = 1, out = f_sr + g * (f_ref - f_sr)
        f_dyn = dyn_rng.normal(size=(2, 8))
        out = adapter_pair(f_sr, f_dyn, 1.0, TriState.NIR, w).value
        np.testing.assert_allclose(out, f_sr + g * (_reference(f_sr, f_dyn, w) - f_sr), atol=1e-12)


def test_blend_stays_between_input_and_reference():
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = random_adapter_weights(rng, d=6)
        f_sr = rng.normal(size=(3, 6))
        f_dyn = rng.normal(size=(2, 6))
        m = float(rng.random())
        out = adapter_pair(f_sr, f_dyn, m, TriState.NIR, w).value
        f_ref = _reference(f_sr, f_dyn, w)
        lo = np.minimum(f_sr, f_ref) - 1e-12
        hi = np.maximum(f_sr, f_ref) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)


def test_singleton_template_attention_reproduces_projected_template():
    # one template token -> softmax over a single key is 1 -> f_ref rows are
    # all equal to the v-projection of that token
    rng = np.random.default_rng(5)
    d = 6
    w = random_adapter_weights(rng, d=d)
    f_sr = rng.normal(size=(4, d))
    f_dyn = rng.normal(size=(1, d))
    v = f_dyn @ w.v_w.T
    for row in _reference(f_sr, f_dyn, w):
        np.testing.assert_allclose(row, v[0], atol=1e-12)


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
    pair = adapter_pair(f_sr, f_dyn, m, TriState.NIR, w)
    g = 0.5
    assert abs(gate_oracle.gate(f_sr, w) - g) < 1e-15
    assert abs(pair.value[0, 0] - (x + g * m * (c * y - x))) < 1e-12

    d_f_sr, d_f_dyn, d_q_w, d_k_w, d_v_w, _, _, d_gate_w2, _ = pair.grad_fn(np.ones((1, 1)))
    assert abs(d_f_sr[0, 0] - (1.0 - g * m)) < 1e-12
    assert abs(d_f_dyn[0, 0] - g * m * c) < 1e-12
    assert abs(d_v_w[0, 0] - g * m * y) < 1e-12
    assert abs(d_q_w[0, 0]) < 1e-15
    assert abs(d_k_w[0, 0]) < 1e-15
    # gate logits move g by +/- p0*p1 = 0.25, scaled by h1 = relu(b1) = 1
    residual = c * y - x
    assert abs(d_gate_w2[0, 0] - m * residual * 0.25) < 1e-12
    assert abs(d_gate_w2[1, 0] + m * residual * 0.25) < 1e-12


def test_backward_through_bypass_is_gradient_passthrough():
    # the bypass is the identity map, so upstream flows through untouched and
    # every weight gradient is zero
    rng = np.random.default_rng(6)
    w = random_adapter_weights(rng, d=4)
    f_sr = rng.normal(size=(2, 4))
    f_dyn = rng.normal(size=(2, 4))
    pair = adapter_pair(f_sr, f_dyn, 0.5, TriState.RGB, w)
    assert pair.value is f_sr
    up = rng.normal(size=(2, 4))
    d_f_sr, d_f_dyn, *d_weights = pair.grad_fn(up)
    np.testing.assert_array_equal(d_f_sr, up)
    np.testing.assert_array_equal(d_f_dyn, np.zeros_like(f_dyn))
    assert all(np.all(d == 0) for d in d_weights)


@pytest.mark.parametrize("state", [TriState.NIR, TriState.RGB])
def test_grad_fn_returns_one_gradient_per_input_in_order(state):
    rng = np.random.default_rng(9)
    w = random_adapter_weights(rng, d=8)
    f_sr = rng.normal(size=(5, 8))
    f_dyn = rng.normal(size=(3, 8))
    grads = adapter_pair(f_sr, f_dyn, 0.6, state, w).grad_fn(rng.normal(size=(5, 8)))
    inputs = [f_sr, f_dyn] + [getattr(w, name) for name in WEIGHT_NAMES]
    assert len(grads) == 9
    assert [g.shape for g in grads] == [x.shape for x in inputs]


def test_layer_weights_reject_a_0d_q_w():
    w = random_adapter_weights(np.random.default_rng(10), d=8)
    with pytest.raises(ShapeError, match="q_w must be"):
        AdapterLayerWeights(
            q_w=np.array(1.0), k_w=w.k_w, v_w=w.v_w, gate_w1=w.gate_w1,
            gate_b1=w.gate_b1, gate_w2=w.gate_w2, gate_b2=w.gate_b2,
        )
    with pytest.raises(ShapeError, match="adapter_pair: feature dim mismatch"):
        adapter_pair(np.ones((3, 7)), np.ones((2, 8)), 0.5, TriState.NIR, w)
    for f_sr, f_dyn in ((np.ones((0, 8)), np.ones((2, 8))), (np.ones((3, 8)), np.ones((0, 8)))):
        with pytest.raises(ShapeError, match="at least one token"):
            adapter_pair(f_sr, f_dyn, 0.5, TriState.NIR, w)


def test_layer_weights_reject_a_nan_entry():
    w = random_adapter_weights(np.random.default_rng(11), d=8)
    with pytest.raises(ValueError, match="gate_b2 has a non-finite entry"):
        AdapterLayerWeights(
            q_w=w.q_w, k_w=w.k_w, v_w=w.v_w, gate_w1=w.gate_w1,
            gate_b1=w.gate_b1, gate_w2=w.gate_w2, gate_b2=np.array([np.nan, 0.0]),
        )


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
        manual = adapter_pair(manual, f_dyn, m, TriState.NIR, layer).value
    np.testing.assert_array_equal(
        apply_stack(f_sr, f_dyn, m, TriState.NIR, stack), manual
    )


def test_adapter_stack_rejects_an_empty_or_mixed_dim_stack():
    # A plain list would let apply_stack return f_sr unchanged for no layers,
    # and fail only inside the second layer for mixed dims.
    rng = np.random.default_rng(9)
    with pytest.raises(ShapeError, match="needs at least one layer"):
        AdapterStack([])
    with pytest.raises(ShapeError, match=r"mixed embedding dims \[4, 8\]"):
        AdapterStack([random_adapter_weights(rng, 8), random_adapter_weights(rng, 4)])


def test_apply_stack_rgb_returns_input_unchanged():
    rng = np.random.default_rng(8)
    stack = random_adapter_stack(rng, layers=4, d=6)
    f_sr = rng.normal(size=(3, 6))
    f_dyn = rng.normal(size=(2, 6))
    out = apply_stack(f_sr, f_dyn, 0.4, TriState.RGB, stack)
    assert out.tobytes() == f_sr.tobytes()
