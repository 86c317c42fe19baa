"""Dense neural primitives with analytic backward passes.

Everything operates on plain float64 numpy arrays (aliased ``Tensor``).  The
operator set is the minimum the rest of the toolkit needs: affine maps,
relu/sigmoid, numerically stable softmax, adaptive max pooling, single-head
scaled dot-product attention and cosine similarity.  Each
differentiable op returns a ``GradPair``, its value with a hand-derived
vector-Jacobian product; ``adapter.adapter_pair`` composes these into one
more pair, and the losses are pairs too.  ``grad_check`` is the one harness
that ties any pair's forward and backward together via central differences.

No autodiff framework is used; the operator set is small and fixed, so the
closures are written out by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# All math is done in 64-bit floats so oracle tolerances can be tight.
Tensor = np.ndarray


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class DegenerateInputError(ValueError):
    """Input is outside the operation's domain (e.g. zero-norm vector)."""


def as_tensor(x) -> Tensor:
    """Coerce to a float64 ndarray."""
    return np.asarray(x, dtype=np.float64)


@dataclass
class GradPair:
    """A forward value together with its backward closure.

    ``grad_fn`` maps the upstream gradient (same shape as ``value``) to a
    tuple of gradients, one per differentiable input of the op that built
    this pair.  Zero upstream always yields zero input gradients.
    """

    value: Tensor
    grad_fn: Callable[[Tensor], tuple[Tensor, ...]]


# ---------------------------------------------------------------------------
# forward ops
# ---------------------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map y = x W^T + b.

    ``w`` has shape (out, in); ``x`` is a single vector (in,) or a stack of
    row vectors (T, in).
    """
    x = as_tensor(x)
    w = as_tensor(w)
    b = as_tensor(b)
    if w.ndim != 2 or x.shape[-1] != w.shape[1] or b.shape != (w.shape[0],):
        raise ShapeError(
            f"linear: x {x.shape}, w {w.shape}, b {b.shape} do not conform"
        )
    return x @ w.T + b


def relu(x: Tensor) -> Tensor:
    return np.maximum(as_tensor(x), 0.0)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function, split by sign so exp never overflows."""
    x = as_tensor(x)
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def scalar_sigmoid(x: float) -> float:
    """``sigmoid`` of one float, bit for bit: same split by sign, same ``np.exp``."""
    if x >= 0.0:
        return float(1.0 / (1.0 + np.exp(-x)))
    ex = np.exp(x)
    return float(ex / (1.0 + ex))


def softmax(v: Tensor) -> Tensor:
    """Stable softmax along the last axis (max subtraction before exponentiation)."""
    v = as_tensor(v)
    if v.size == 0 or v.shape[-1] == 0:
        raise ShapeError("softmax: empty axis")
    shifted = v - np.max(v, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _pool_windows(n_in: int, n_out: int) -> list[tuple[int, int]]:
    # Window i covers floor(i*n_in/n_out) .. ceil((i+1)*n_in/n_out); windows
    # tile the axis and collapse to the identity when n_out == n_in.
    return [
        ((i * n_in) // n_out, -((-(i + 1) * n_in) // n_out))
        for i in range(n_out)
    ]


def adaptive_max_pool(x: Tensor, out_hw: tuple[int, int]) -> Tensor:
    """Adaptive max pool of a (C, H, W) tensor to (C, h, w).

    Separable: a max over each row window, then over each column window of
    those, h + w reductions instead of h * w.  Max is exact, so the result
    equals the per-cell window max bit for bit.
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"pool: expected C*H*W input, got shape {x.shape}")
    h, w = out_hw
    if h <= 0 or w <= 0 or h > x.shape[1] or w > x.shape[2]:
        raise ShapeError(f"pool: output {out_hw} not within input plane {x.shape[1:]}")
    rows = _pool_windows(x.shape[1], h)
    cols = _pool_windows(x.shape[2], w)
    by_row = np.stack([x[:, r0:r1].max(axis=1) for r0, r1 in rows], axis=1)
    return np.stack([by_row[:, :, c0:c1].max(axis=2) for c0, c1 in cols], axis=2)



# ---------------------------------------------------------------------------
# backward closures
# ---------------------------------------------------------------------------


def linear_pair(x: Tensor, w: Tensor, b: Tensor) -> GradPair:
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    value = linear(x, w, b)

    def grad_fn(up: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        up = as_tensor(up)
        if x.ndim == 1:
            return w.T @ up, np.outer(up, x), up.copy()
        return up @ w, up.T @ x, up.sum(axis=0)

    return GradPair(value, grad_fn)


def relu_pair(x: Tensor) -> GradPair:
    x = as_tensor(x)
    value = relu(x)
    mask = (x > 0).astype(np.float64)  # subgradient 0 at the kink

    def grad_fn(up: Tensor) -> tuple[Tensor]:
        return (as_tensor(up) * mask,)

    return GradPair(value, grad_fn)


def sigmoid_pair(x: Tensor) -> GradPair:
    s = sigmoid(x)

    def grad_fn(up: Tensor) -> tuple[Tensor]:
        return (as_tensor(up) * s * (1.0 - s),)

    return GradPair(s, grad_fn)


def softmax_pair(x: Tensor) -> GradPair:
    y = softmax(x)

    def grad_fn(up: Tensor) -> tuple[Tensor]:
        up = as_tensor(up)
        dot = np.sum(up * y, axis=-1, keepdims=True)
        return (y * (up - dot),)

    return GradPair(y, grad_fn)


def attention_pair(q: Tensor, k: Tensor, v: Tensor) -> GradPair:
    """Single-head scaled dot-product attention, Softmax(q k^T / sqrt(d)) v,
    with gradients for q, k and v.

    q: (T, d); k: (S, d); v: (S, dv).  Rows of the attention matrix sum to 1.
    Backward runs the softmax VJP per row of the attention matrix, then
    distributes through the two matrix products and the 1/sqrt(d) scale.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError("attention: q, k, v must be 2-D token matrices")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention: feature dims differ, q {q.shape} vs k {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"attention: token counts differ, k {k.shape} vs v {v.shape}")
    scale = 1.0 / np.sqrt(float(q.shape[1]))
    weights = softmax_pair(q @ k.T * scale)
    value = weights.value @ v

    def grad_fn(up: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        up = as_tensor(up)
        (dscores,) = weights.grad_fn(up @ v.T)
        return dscores @ k * scale, dscores.T @ q * scale, weights.value.T @ up

    return GradPair(value, grad_fn)


def cosine_pair(a: Tensor, b: Tensor) -> GradPair:
    """a.b / (|a| |b|) of the flattened inputs, with gradients w.r.t. both.

    A zero, NaN or overflowing norm is a ``DegenerateInputError``.
    """
    a = as_tensor(a).ravel()
    b = as_tensor(b).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"cosine_pair: lengths differ, {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):
        na = np.linalg.norm(a)
        nb = np.linalg.norm(b)
    if not (0.0 < na < np.inf and 0.0 < nb < np.inf):
        raise DegenerateInputError(f"cosine_pair: norms {na}, {nb} not in (0, inf)")
    c = float(a @ b / (na * nb))

    def grad_fn(up: Tensor) -> tuple[Tensor, Tensor]:
        u = float(up)
        da = u * (b / (na * nb) - c * a / (na * na))
        db = u * (a / (na * nb) - c * b / (nb * nb))
        return da, db

    return GradPair(as_tensor(c), grad_fn)


# ---------------------------------------------------------------------------
# gradient checker
# ---------------------------------------------------------------------------

FD_STEP = 1e-5  # central-difference step


def grad_check(make: Callable[..., GradPair], inputs: Sequence[Tensor], coef) -> float:
    """Compare a pair's vector-Jacobian product to central differences.

    The scalar checked is ``sum(coef * make(*inputs).value)``; its analytic
    gradients are ``make(*inputs).grad_fn(coef)``, one per input.  Returns
    the max over all input coordinates of

        |analytic - central_difference| / max(1e-8, |central_difference|)
    """
    inputs = [as_tensor(x).copy() for x in inputs]
    coef = as_tensor(coef)
    grads = make(*inputs).grad_fn(coef)
    if len(grads) != len(inputs):
        raise ShapeError(
            f"grad_check: grad_fn returned {len(grads)} gradients for {len(inputs)} inputs"
        )
    worst = 0.0
    for x, g in zip(inputs, grads):
        g = as_tensor(g)
        if g.shape != x.shape:
            raise ShapeError(
                f"grad_check: gradient shape {g.shape} != input shape {x.shape}"
            )
        flat = x.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            f_plus = np.sum(coef * make(*inputs).value)
            flat[i] = orig - FD_STEP
            f_minus = np.sum(coef * make(*inputs).value)
            flat[i] = orig
            cd = (float(f_plus) - float(f_minus)) / (2.0 * FD_STEP)
            rel = abs(float(gflat[i]) - cd) / max(1e-8, abs(cd))
            worst = max(worst, rel)
    return worst
