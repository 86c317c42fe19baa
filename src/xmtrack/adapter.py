"""Gated feature adapter for single-band (NIR) frames.

When the tri-state switch reports NIR, search-region features are refined by
attending to the dynamic-template features and blending the result back in,
scaled by the modality weight ``m`` and a per-layer scalar gate ``g``:

    f_ref = Attention(q(f_sr), k(f_dyn), v(f_dyn))
    f_o   = f_sr + g * m * (f_ref - f_sr)

which is the residual form of the convex blend g*(m*f_ref + (1-m)*f_sr)
+ (1-g)*f_sr; it collapses to the exact identity whenever g*m = 0.  For RGB
frames the adapter is bypassed entirely and the input is returned untouched.

``adapter_pair`` is a ``core.GradPair`` like every other differentiable op:
its forward composes ``core``'s pairs (linear/relu/softmax for the gate head,
attention for f_ref), and its VJP closure chains theirs by hand; there is no
autodiff graph anywhere in the toolkit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    GradPair,
    ShapeError,
    Tensor,
    as_tensor,
    attention_pair,
    linear_pair,
    relu_pair,
    softmax_pair,
)
from .state_switch import TriState

# Toy sizes: big enough to exercise every shape, small enough that
# central-difference checks stay fast.
DEFAULT_LAYERS = 4
DEFAULT_DIM = 16
DEFAULT_SEARCH_TOKENS = 16
DEFAULT_TEMPLATE_TOKENS = 4


# Parameter names of one layer, in AdapterLayerWeights field order.
WEIGHT_NAMES = ("q_w", "k_w", "v_w", "gate_w1", "gate_b1", "gate_w2", "gate_b2")


def gate_hidden_dim(d: int) -> int:
    return max(1, d // 4)


@dataclass
class AdapterLayerWeights:
    """One adapter layer: q/k/v projections (bias-free) + 2-logit gate MLP."""

    q_w: Tensor  # (d, d)
    k_w: Tensor  # (d, d)
    v_w: Tensor  # (d, d)
    gate_w1: Tensor  # (d//4, d)
    gate_b1: Tensor
    gate_w2: Tensor  # (2, d//4)
    gate_b2: Tensor

    def __post_init__(self):
        for name in WEIGHT_NAMES:
            arr = as_tensor(getattr(self, name))
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"AdapterLayerWeights: {name} has a non-finite entry")
            setattr(self, name, arr)
        # Every other array is compared by its whole shape, rank included.
        if self.q_w.ndim != 2:
            raise ShapeError(f"AdapterLayerWeights: q_w must be (d, d), got shape {self.q_w.shape}")
        d = self.q_w.shape[0]
        hid = gate_hidden_dim(d)
        expected = ((d, d), (d, d), (d, d), (hid, d), (hid,), (2, hid), (2,))
        if tuple(getattr(self, name).shape for name in WEIGHT_NAMES) != expected:
            raise ShapeError("AdapterLayerWeights: inconsistent parameter shapes")

    @property
    def dim(self) -> int:
        return self.q_w.shape[0]


@dataclass
class AdapterStack:
    layers: list[AdapterLayerWeights] = field(default_factory=list)

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("AdapterStack: needs at least one layer")
        dims = {layer.dim for layer in self.layers}
        if len(dims) != 1:
            raise ShapeError(f"AdapterStack: mixed embedding dims {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.layers[0].dim


def random_adapter_weights(
    rng: np.random.Generator, d: int = DEFAULT_DIM
) -> AdapterLayerWeights:
    hid = gate_hidden_dim(d)
    s = 1.0 / np.sqrt(d)
    return AdapterLayerWeights(
        q_w=s * rng.standard_normal((d, d)),
        k_w=s * rng.standard_normal((d, d)),
        v_w=s * rng.standard_normal((d, d)),
        gate_w1=s * rng.standard_normal((hid, d)),
        gate_b1=0.1 * rng.standard_normal(hid),
        gate_w2=s * rng.standard_normal((2, hid)),
        gate_b2=0.1 * rng.standard_normal(2),
    )


def random_adapter_stack(
    rng: np.random.Generator, layers: int = DEFAULT_LAYERS, d: int = DEFAULT_DIM
) -> AdapterStack:
    return AdapterStack([random_adapter_weights(rng, d) for _ in range(layers)])


def _gate_head(f_sr: Tensor, w: AdapterLayerWeights) -> list[GradPair]:
    """Token mean -> linear -> relu -> linear -> softmax, as a chain of pairs."""
    hidden = linear_pair(f_sr.mean(axis=0), w.gate_w1, w.gate_b1)
    active = relu_pair(hidden.value)
    logits = linear_pair(active.value, w.gate_w2, w.gate_b2)
    return [hidden, active, logits, softmax_pair(logits.value)]


def layer_gate(f_sr: Tensor, w: AdapterLayerWeights) -> float:
    """Scalar gate in (0,1): mean over tokens -> MLP -> 2-logit softmax[0]."""
    f_sr = as_tensor(f_sr)
    if f_sr.ndim != 2 or f_sr.shape[0] < 1:
        raise ShapeError(f"layer_gate: expected (T, d) with T >= 1, got {f_sr.shape}")
    return float(_gate_head(f_sr, w)[-1].value[0])


def adapter_pair(
    f_sr: Tensor,
    f_dyn: Tensor,
    m: float,
    state: TriState,
    w: AdapterLayerWeights,
) -> GradPair:
    """One adapter layer with gradients for f_sr, f_dyn and ``w``'s arrays.

    ``grad_fn`` returns one gradient per input: f_sr, f_dyn, then the
    weights in ``WEIGHT_NAMES`` order.  Adaptation is NIR-specific: any other
    state (RGB, or Invalid where the features are junk anyway) returns the
    input array object itself, and its VJP passes the upstream gradient
    through to f_sr with zeros everywhere else.

    Gradient of the blend f_o = f_sr + g*m*(f_ref - f_sr) flows along three
    paths into f_sr: the direct blend term, the query projection, and the
    token mean feeding the gate.  m is treated as a constant (it comes from
    the switch, which is inference-only).
    """
    if state != TriState.NIR:
        def bypass_grad_fn(up: Tensor) -> tuple[Tensor, ...]:
            weights = (np.zeros_like(getattr(w, name)) for name in WEIGHT_NAMES)
            return (as_tensor(up).copy(), np.zeros(np.shape(f_dyn)), *weights)

        return GradPair(f_sr, bypass_grad_fn)

    f_sr = as_tensor(f_sr)
    f_dyn = as_tensor(f_dyn)
    if f_sr.ndim != 2 or f_dyn.ndim != 2:
        raise ShapeError("adapter_pair: features must be (tokens, dim) matrices")
    if f_sr.shape[1] != w.dim or f_dyn.shape[1] != w.dim:
        raise ShapeError(
            f"adapter_pair: feature dim mismatch, f_sr {f_sr.shape}, f_dyn {f_dyn.shape}, "
            f"weights expect dim {w.dim}"
        )
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"adapter_pair: modality weight {m} outside [0, 1]")

    hidden, active, logits, probs = _gate_head(f_sr, w)
    g = float(probs.value[0])

    # cross attention against the dynamic template
    attention = attention_pair(f_sr @ w.q_w.T, f_dyn @ w.k_w.T, f_dyn @ w.v_w.T)
    f_ref = attention.value

    c = g * m
    t_tokens = f_sr.shape[0]

    def grad_fn(up: Tensor) -> tuple[Tensor, ...]:
        up = as_tensor(up)
        if up.shape != f_sr.shape:
            raise ShapeError(f"adapter_pair: upstream {up.shape} vs output {f_sr.shape}")

        # blend
        d_f_ref = c * up
        d_g = m * float(np.sum(up * (f_ref - f_sr)))
        d_f_sr = (1.0 - c) * up

        # attention, then the bias-free projections q = f_sr q_w^T, k/v = f_dyn {k,v}_w^T
        d_q, d_k, d_v = attention.grad_fn(d_f_ref)
        d_f_sr += d_q @ w.q_w
        d_q_w = d_q.T @ f_sr
        d_f_dyn = d_k @ w.k_w + d_v @ w.v_w
        d_k_w = d_k.T @ f_dyn
        d_v_w = d_v.T @ f_dyn

        # gate head, back from g = softmax(logits)[0] to the token mean
        (d_logits,) = probs.grad_fn(np.array([d_g, 0.0]))
        d_a1, d_gate_w2, d_gate_b2 = logits.grad_fn(d_logits)
        (d_h1,) = active.grad_fn(d_a1)
        d_mu, d_gate_w1, d_gate_b1 = hidden.grad_fn(d_h1)
        # mean over tokens spreads its gradient evenly across rows
        d_f_sr += np.tile(d_mu / t_tokens, (t_tokens, 1))

        return (
            d_f_sr, d_f_dyn, d_q_w, d_k_w, d_v_w,
            d_gate_w1, d_gate_b1, d_gate_w2, d_gate_b2,
        )

    return GradPair(f_sr + c * (f_ref - f_sr), grad_fn)



def apply_stack(
    f_sr: Tensor,
    f_dyn: Tensor,
    m: float,
    state: TriState,
    stack: AdapterStack,
) -> Tensor:
    """Run every layer's adapter in sequence (each with its own gate)."""
    out = f_sr
    for layer in stack.layers:
        out = adapter_pair(out, f_dyn, m, state, layer).value
    return out
