"""Gated feature adapter for single-band (NIR) frames.

When the tri-state switch reports NIR, search-region features are refined by
attending to the dynamic-template features and blending the result back in,
scaled by the modality weight ``m`` and a per-layer scalar gate ``g``:

    f_ref = Attention(q(f_sr), k(f_dyn), v(f_dyn))
    f_o   = f_sr + g * m * (f_ref - f_sr)

which is the residual form of the convex blend g*(m*f_ref + (1-m)*f_sr)
+ (1-g)*f_sr; it collapses to the exact identity whenever g*m = 0.  For RGB
frames the adapter is bypassed entirely and the input is returned untouched.

The forward composes ``core``'s gradient pairs (linear/relu/softmax for the
gate head, attention for f_ref), and ``adapter_backward`` chains their VJPs
by hand; there is no autodiff graph anywhere in the toolkit.
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
            setattr(self, name, as_tensor(getattr(self, name)))
        d = self.q_w.shape[0]
        hid = gate_hidden_dim(d)
        ok = (
            self.q_w.shape == (d, d)
            and self.k_w.shape == (d, d)
            and self.v_w.shape == (d, d)
            and self.gate_w1.shape == (hid, d)
            and self.gate_b1.shape == (hid,)
            and self.gate_w2.shape == (2, hid)
            and self.gate_b2.shape == (2,)
        )
        if not ok:
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

    def tensor_map(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            for name in WEIGHT_NAMES:
                out[f"adapter.{i}.{name}"] = getattr(layer, name)
        return out

    @classmethod
    def from_tensor_map(cls, tensors: dict[str, Tensor]) -> "AdapterStack":
        layers = []
        i = 0
        while f"adapter.{i}.q_w" in tensors:
            layers.append(
                AdapterLayerWeights(
                    **{name: tensors[f"adapter.{i}.{name}"] for name in WEIGHT_NAMES}
                )
            )
            i += 1
        return cls(layers=layers)


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


@dataclass
class AdapterCache:
    """Intermediate values of one NIR-path forward, consumed by backward."""

    f_sr: Tensor
    f_dyn: Tensor
    m: float
    w: AdapterLayerWeights
    bypassed: bool
    g: float = 0.0
    v: Tensor | None = None
    f_ref: Tensor | None = None
    gate: list[GradPair] | None = None  # _gate_head chain, forward order
    attention: GradPair | None = None  # f_ref = attention(q, k, v)


@dataclass
class AdapterGrads:
    f_sr: Tensor
    f_dyn: Tensor
    q_w: Tensor
    k_w: Tensor
    v_w: Tensor
    gate_w1: Tensor
    gate_b1: Tensor
    gate_w2: Tensor
    gate_b2: Tensor


def _check_adapt_inputs(f_sr: Tensor, f_dyn: Tensor, m: float, w: AdapterLayerWeights):
    if f_sr.ndim != 2 or f_dyn.ndim != 2:
        raise ShapeError("adapt: features must be (tokens, dim) matrices")
    if f_sr.shape[1] != w.dim or f_dyn.shape[1] != w.dim:
        raise ShapeError(
            f"adapt: feature dim mismatch, f_sr {f_sr.shape}, f_dyn {f_dyn.shape}, "
            f"weights expect dim {w.dim}"
        )
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"adapt: modality weight {m} outside [0, 1]")


def adapt_with_cache(
    f_sr: Tensor,
    f_dyn: Tensor,
    m: float,
    state: TriState,
    w: AdapterLayerWeights,
) -> tuple[Tensor, AdapterCache]:
    """Adapter forward returning (output, cache-for-backward).

    Adaptation is NIR-specific: any other state (RGB, or Invalid where the
    features are junk anyway) bypasses everything — the input array is
    returned as-is (bit-identical) and the cache records the bypass.
    """
    if state != TriState.NIR:
        cache = AdapterCache(as_tensor(f_sr), as_tensor(f_dyn), m, w, bypassed=True)
        return f_sr, cache

    f_sr = as_tensor(f_sr)
    f_dyn = as_tensor(f_dyn)
    _check_adapt_inputs(f_sr, f_dyn, m, w)

    gate = _gate_head(f_sr, w)
    g = float(gate[-1].value[0])

    # cross attention against the dynamic template
    v = f_dyn @ w.v_w.T
    attention = attention_pair(f_sr @ w.q_w.T, f_dyn @ w.k_w.T, v)
    f_ref = attention.value

    f_o = f_sr + (g * m) * (f_ref - f_sr)
    cache = AdapterCache(
        f_sr, f_dyn, m, w, bypassed=False, g=g, v=v, f_ref=f_ref,
        gate=gate, attention=attention,
    )
    return f_o, cache


def adapt(
    f_sr: Tensor,
    f_dyn: Tensor,
    m: float,
    state: TriState,
    w: AdapterLayerWeights,
) -> Tensor:
    out, _ = adapt_with_cache(f_sr, f_dyn, m, state, w)
    return out


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
        out = adapt(out, f_dyn, m, state, layer)
    return out


def adapter_backward(upstream: Tensor, cache: AdapterCache) -> AdapterGrads:
    """Analytic gradients of one adapter layer.

    Gradient of the blend f_o = f_sr + g*m*(f_ref - f_sr) flows along three
    paths into f_sr: the direct blend term, the query projection, and the
    token mean feeding the gate.  m is treated as a constant (it comes from
    the switch, which is inference-only).
    """
    if cache is None:
        raise ValueError("adapter_backward: missing forward cache")
    up = as_tensor(upstream)
    w = cache.w

    if cache.bypassed:
        return AdapterGrads(
            f_sr=up.copy(),
            f_dyn=np.zeros_like(cache.f_dyn),
            **{name: np.zeros_like(getattr(w, name)) for name in WEIGHT_NAMES},
        )
    if up.shape != cache.f_sr.shape:
        raise ShapeError(
            f"adapter_backward: upstream {up.shape} vs output {cache.f_sr.shape}"
        )

    f_sr, f_dyn = cache.f_sr, cache.f_dyn
    c = cache.g * cache.m
    t_tokens = f_sr.shape[0]

    # blend
    d_f_ref = c * up
    d_g = cache.m * float(np.sum(up * (cache.f_ref - f_sr)))
    d_f_sr = (1.0 - c) * up

    # attention, then the bias-free projections q = f_sr q_w^T, k/v = f_dyn {k,v}_w^T
    d_q, d_k, d_v = cache.attention.grad_fn(d_f_ref)
    d_f_sr += d_q @ w.q_w
    d_q_w = d_q.T @ f_sr
    d_f_dyn = d_k @ w.k_w + d_v @ w.v_w
    d_k_w = d_k.T @ f_dyn
    d_v_w = d_v.T @ f_dyn

    # gate head, back from g = softmax(logits)[0] to the token mean
    hidden, active, logits, probs = cache.gate
    (d_logits,) = probs.grad_fn(np.array([d_g, 0.0]))
    d_a1, d_gate_w2, d_gate_b2 = logits.grad_fn(d_logits)
    (d_h1,) = active.grad_fn(d_a1)
    d_mu, d_gate_w1, d_gate_b1 = hidden.grad_fn(d_h1)
    # mean over tokens spreads its gradient evenly across rows
    d_f_sr += np.tile(d_mu / t_tokens, (t_tokens, 1))

    return AdapterGrads(
        f_sr=d_f_sr,
        f_dyn=d_f_dyn,
        q_w=d_q_w,
        k_w=d_k_w,
        v_w=d_v_w,
        gate_w1=d_gate_w1,
        gate_b1=d_gate_b1,
        gate_w2=d_gate_w2,
        gate_b2=d_gate_b2,
    )
