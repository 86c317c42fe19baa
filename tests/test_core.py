"""Tensor primitives against naive oracles and frozen hand values."""

import numpy as np
import pytest

import inspect

from xmtrack import adapter, core, losses, verify
from xmtrack.core import (
    DegenerateInputError,
    GradPair,
    ShapeError,
    adaptive_max_pool,
    attention_pair,
    cosine_pair,
    grad_check,
    linear,
    linear_pair,
    relu,
    relu_pair,
    scalar_sigmoid,
    sigmoid,
    sigmoid_pair,
    softmax,
    softmax_pair,
)
from xmtrack.ctp import BBox
from xmtrack.losses import EpochSchedule, l1_pair, modality_pair, siou_pair, template_sim_pair


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
    out = attention_pair(q, k, v).value
    for row in out:
        np.testing.assert_allclose(row, v[0], atol=1e-12)


def test_attention_uniform_when_all_scores_equal():
    q = np.zeros((3, 4))  # zero query -> identical scores -> uniform weights
    rng = np.random.default_rng(6)
    k = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 4))
    out = attention_pair(q, k, v).value
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (3, 1)), atol=1e-12)


def test_attention_rejects_nonconforming_operands():
    q, k, v = np.ones((3, 4)), np.ones((5, 4)), np.ones((5, 2))
    for bad in [(q[0], k, v), (q, k[:, :3], v), (q, k, v[:4])]:
        with pytest.raises(ShapeError):
            attention_pair(*bad)


def test_cosine_similarity_reference_points():
    assert abs(cosine_pair(np.array([1.0, 0.0]), np.array([0.0, 1.0])).value) < 1e-15
    assert abs(cosine_pair(np.array([2.0, 0.0]), np.array([5.0, 0.0])).value - 1.0) < 1e-15
    assert abs(cosine_pair(np.array([1.0, 1.0]), np.array([-1.0, -1.0])).value + 1.0) < 1e-15


def test_cosine_similarity_rejects_zero_vector():
    # a NaN entry gives a NaN norm and 1e200 entries overflow it; neither may warn
    for bad in (np.zeros(3), np.array([1.0, np.nan, 1.0]), np.full(3, 1e200)):
        for a, b in ((bad, np.ones(3)), (np.ones(3), bad)):
            with pytest.raises(DegenerateInputError, match="cosine_pair: norms"):
                cosine_pair(a, b)


def test_grad_pairs_map_zero_upstream_to_zero_grads():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(5, 4))
    b = rng.normal(size=5)
    cases = [
        linear_pair(x, w, b),
        relu_pair(x + 0.1),
        sigmoid_pair(x),
        softmax_pair(x),
        attention_pair(x, rng.normal(size=(2, 4)), rng.normal(size=(2, 4))),
        cosine_pair(x[0], x[1]),
        l1_pair(BBox(3.0, 4.0, 5.0, 6.0), BBox(2.0, 5.0, 4.0, 7.0)),
        siou_pair(BBox(3.0, 4.0, 5.0, 6.0), BBox(2.0, 5.0, 4.0, 7.0)),
        modality_pair(1.0, 0.3),
        template_sim_pair(x[0], x[1], EpochSchedule(C=1, N=4)),
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
    coef = rng.normal(size=(2, 4))
    assert grad_check(linear_pair, [x, w, b], coef) < 1e-6


def test_grad_check_flags_corrupted_gradient():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 3))

    def bad(x_):
        pair = relu_pair(x_ + 5.0)  # shifted away from the kink
        return GradPair(pair.value, lambda up: tuple(g + 0.25 for g in pair.grad_fn(up)))

    assert grad_check(bad, [x], np.ones((2, 3))) > 0.1


def test_injected_bug_fails_only_the_l1_check():
    clean = verify.gradient_report()
    broken = verify.gradient_report(inject_bug=True)
    assert list(broken) == list(clean) == list(verify.GRADIENT_CHECKS)
    assert {name for name in clean if broken[name] != clean[name]} == {"l1"}
    assert broken["l1"] >= verify.GRAD_TOL


# Pairs that no check calls directly, and the check whose pair composes them.
INDIRECT_PAIRS = {"relu_pair": "adapter", "cosine_pair": "cosine_loss"}


def test_every_grad_pair_is_exercised_by_a_gradient_check(monkeypatch):
    modules = (core, adapter, losses)
    pairs = {
        name
        for mod in modules
        for name, fn in vars(mod).items()
        if name.endswith("_pair") and inspect.isfunction(fn) and fn.__module__ == mod.__name__
    }
    reached = {name: set() for name in pairs}
    running = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            reached[name].add(running[-1])
            return fn(*args, **kwargs)

        return wrapper

    for name in pairs:
        for mod in (*modules, verify):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, spy(name, vars(mod)[name]))
    for check_name, check in verify.GRADIENT_CHECKS.items():
        running.append(check_name)
        check(0)
    direct = {name for name in pairs if name in vars(verify)}
    assert pairs - direct == set(INDIRECT_PAIRS), "a new pair needs a check or an entry here"
    for name in direct:
        assert reached[name], f"{name} is imported by verify but no check calls it"
    for name, check_name in INDIRECT_PAIRS.items():
        assert check_name in reached[name], f"{check_name} does not reach {name}"


def test_scalar_sigmoid_matches_the_array_sigmoid_bit_for_bit():
    rng = np.random.default_rng(14)
    logits = [800.0, -800.0, np.inf, -np.inf, np.nan, 0.0, -0.0, *rng.normal(0.0, 20.0, 200).tolist()]
    for x in logits:
        assert scalar_sigmoid(x).hex() == float(sigmoid(np.array([x]))[0]).hex(), x
