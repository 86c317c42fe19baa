"""Registry of gradient checks over every differentiable operation.

Every differentiable op, the adapter and the four losses included, is a
``GradPair``, and every check runs through one harness, ``core.grad_check``:
it weights the pair's value by a seeded ``coef`` and hands that same ``coef``
to the pair's ``grad_fn``.  The CLI's gradcheck command and the acceptance
suite both consume ``gradient_report``; the threshold for a pass is a max
relative error below 1e-4.

Inputs are seeded and nudged away from documented singular sets (relu kinks,
SIoU center/shape ties), which the checker cannot handle by construction.
"""

from __future__ import annotations

import numpy as np

from .adapter import AdapterLayerWeights, adapter_pair
from .core import (
    GradPair,
    attention_pair,
    grad_check,
    linear_pair,
    sigmoid_pair,
    softmax_pair,
)
from .ctp import BBox
from .losses import EpochSchedule, l1_pair, modality_pair, siou_pair, template_sim_pair
from .state_switch import TriState

GRAD_TOL = 1e-4


def _away_from(x: np.ndarray, margin: float = 1e-3) -> np.ndarray:
    """Push entries out of the +-margin band around the kink at zero."""
    x = x.copy()
    close = np.abs(x) < margin
    x[close] = margin * np.where(x[close] >= 0.0, 1.0, -1.0) * 2.0
    return x


def check_linear(seed: int) -> float:
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(4)
    inputs = [rng.standard_normal(5), rng.standard_normal((4, 5)), rng.standard_normal(4)]
    return grad_check(linear_pair, inputs, coef)


def check_sigmoid(seed: int) -> float:
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(6)
    return grad_check(sigmoid_pair, [rng.standard_normal(6)], coef)


def check_softmax(seed: int) -> float:
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(7)
    return grad_check(softmax_pair, [rng.standard_normal(7)], coef)


def check_attention(seed: int) -> float:
    rng = np.random.default_rng(seed)
    t_tok, s_tok, d = 3, 4, 5
    coef = rng.standard_normal((t_tok, d))
    inputs = [rng.standard_normal((n, d)) for n in (t_tok, s_tok, s_tok)]
    return grad_check(attention_pair, inputs, coef)


def check_adapter(seed: int) -> float:
    """Full NIR-path adapter: inputs and every weight tensor."""
    rng = np.random.default_rng(seed)
    t_tok, s_tok, d = 4, 2, 8
    f_sr0 = rng.standard_normal((t_tok, d))
    f_dyn0 = rng.standard_normal((s_tok, d))
    gate_w1 = rng.standard_normal((2, d)) / np.sqrt(d)
    gate_b1 = 0.3 * rng.standard_normal(2)
    # keep the gate's relu pre-activations clear of the kink at this point
    h1 = gate_w1 @ f_sr0.mean(axis=0) + gate_b1
    gate_b1 = gate_b1 + (_away_from(h1) - h1)
    weights = [
        rng.standard_normal((d, d)) / np.sqrt(d),
        rng.standard_normal((d, d)) / np.sqrt(d),
        rng.standard_normal((d, d)) / np.sqrt(d),
        gate_w1,
        gate_b1,
        rng.standard_normal((2, 2)),
        0.3 * rng.standard_normal(2),
    ]
    coef = rng.standard_normal((t_tok, d))

    def make(f_sr, f_dyn, *w):
        return adapter_pair(f_sr, f_dyn, 0.7, TriState.NIR, AdapterLayerWeights(*w))

    return grad_check(make, [f_sr0, f_dyn0, *weights], coef)


_L1_GT = BBox(cx=50.0, cy=40.0, w=20.0, h=16.0)


def _l1_pair(p) -> GradPair:
    return l1_pair(BBox(*p), _L1_GT)


def check_l1(seed: int) -> float:
    rng = np.random.default_rng(seed)
    # offset well away from the |.| kinks at coordinate equality
    p0 = _L1_GT.as_array() + _away_from(rng.uniform(-4, 4, 4), margin=0.5)
    return grad_check(_l1_pair, [p0], rng.standard_normal())


def check_siou(seed: int) -> float:
    rng = np.random.default_rng(seed)
    gt = BBox(cx=50.0, cy=50.0, w=20.0, h=18.0)
    # generic overlapping box: both center deltas nonzero, dims distinct,
    # no edge ties — away from every singular set documented on siou_pair
    p0 = np.array(
        [
            gt.cx + 3.0 + rng.uniform(0.5, 2.0),
            gt.cy - 4.0 - rng.uniform(0.5, 2.0),
            gt.w + 3.0 + rng.uniform(0.5, 1.5),
            gt.h - 3.0 - rng.uniform(0.5, 1.5),
        ]
    )
    return grad_check(lambda p: siou_pair(BBox(*p), gt), [p0], rng.standard_normal())


def check_bce(seed: int) -> float:
    rng = np.random.default_rng(seed)
    m_hat = rng.uniform(0.1, 0.9)
    return grad_check(lambda p: modality_pair(0.3, p), [m_hat], rng.standard_normal())


def check_cosine_loss(seed: int) -> float:
    rng = np.random.default_rng(seed)
    sched = EpochSchedule(C=2, N=10)
    inputs = [rng.standard_normal(6), rng.standard_normal(6)]
    return grad_check(lambda a, b: template_sim_pair(a, b, sched), inputs, rng.standard_normal())


GRADIENT_CHECKS = {
    "linear": check_linear,
    "sigmoid": check_sigmoid,
    "softmax": check_softmax,
    "attention": check_attention,
    "adapter": check_adapter,
    "l1": check_l1,
    "siou": check_siou,
    "bce": check_bce,
    "cosine_loss": check_cosine_loss,
}


def _l1_with_wrong_grad(p) -> GradPair:
    pair = _l1_pair(p)
    return GradPair(pair.value, lambda up: tuple(g + 0.05 for g in pair.grad_fn(up)))


def gradient_report(seed: int = 0, inject_bug: bool = False) -> dict[str, float]:
    """Max relative error per registered op.

    ``inject_bug`` corrupts the l1 gradient on purpose — a self-test proving
    the checker actually catches wrong analytic gradients.
    """
    report = {name: fn(seed) for name, fn in GRADIENT_CHECKS.items()}
    if inject_bug:
        report["l1"] = grad_check(_l1_with_wrong_grad, [_L1_GT.as_array() + 2.0], 1.0)
    return report
