"""Registry of gradient checks over every differentiable operation.

Each check builds a scalar-valued function with hand-derived gradients and
runs it through the central-difference checker.  Every ``GradPair`` op, the
adapter included, goes through one harness, ``_pair_check``: it weights the
pair's value by a seeded ``coef`` and hands that same ``coef`` to the pair's
``grad_fn``.  The four losses return their gradients directly.  The CLI's
gradcheck command and the acceptance suite both consume ``gradient_report``;
the threshold for a pass is a max relative error below 1e-4.

Inputs are seeded and nudged away from documented singular sets (relu kinks,
SIoU center/shape ties), which the checker cannot handle by construction.
"""

from __future__ import annotations

import numpy as np

from .adapter import AdapterLayerWeights, adapter_pair
from .core import (
    attention_pair,
    grad_check,
    linear_pair,
    sigmoid_pair,
    softmax_pair,
)
from .ctp import BBox
from .losses import (
    EpochSchedule,
    l1_loss,
    l1_loss_grad,
    modality_loss,
    modality_loss_grad,
    siou_loss,
    siou_loss_grad,
    template_sim_loss,
    template_sim_loss_grad,
)
from .state_switch import TriState

GRAD_TOL = 1e-4


def _away_from(x: np.ndarray, margin: float = 1e-3) -> np.ndarray:
    """Push entries out of the +-margin band around the kink at zero."""
    x = x.copy()
    close = np.abs(x) < margin
    x[close] = margin * np.where(x[close] >= 0.0, 1.0, -1.0) * 2.0
    return x


def _pair_check(make, inputs, coef) -> float:
    """Check ``make``'s pair on sum(coef * value) against its own ``grad_fn(coef)``."""

    def f(*xs):
        pair = make(*xs)
        return float(np.sum(coef * pair.value)), pair.grad_fn(coef)

    return grad_check(f, inputs)


def check_linear(seed: int) -> float:
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(4)
    inputs = [rng.standard_normal(5), rng.standard_normal((4, 5)), rng.standard_normal(4)]
    return _pair_check(linear_pair, inputs, coef)


def check_sigmoid(seed: int) -> float:
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(6)
    return _pair_check(sigmoid_pair, [rng.standard_normal(6)], coef)


def check_softmax(seed: int) -> float:
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(7)
    return _pair_check(softmax_pair, [rng.standard_normal(7)], coef)


def check_attention(seed: int) -> float:
    rng = np.random.default_rng(seed)
    t_tok, s_tok, d = 3, 4, 5
    coef = rng.standard_normal((t_tok, d))
    inputs = [rng.standard_normal((n, d)) for n in (t_tok, s_tok, s_tok)]
    return _pair_check(attention_pair, inputs, coef)


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

    return _pair_check(make, [f_sr0, f_dyn0, *weights], coef)


def check_l1(seed: int) -> float:
    rng = np.random.default_rng(seed)
    gt = BBox(cx=50.0, cy=40.0, w=20.0, h=16.0)

    def f(p):
        pred = BBox(cx=p[0], cy=p[1], w=p[2], h=p[3])
        return l1_loss(pred, gt), [l1_loss_grad(pred, gt)]

    # offset well away from the |.| kinks at coordinate equality
    p0 = gt.as_array() + _away_from(rng.uniform(-4, 4, 4), margin=0.5)
    return grad_check(f, [p0])


def check_siou(seed: int) -> float:
    rng = np.random.default_rng(seed)
    gt = BBox(cx=50.0, cy=50.0, w=20.0, h=18.0)

    def f(p):
        pred = BBox(cx=p[0], cy=p[1], w=p[2], h=p[3])
        return siou_loss(pred, gt), [siou_loss_grad(pred, gt)]

    # generic overlapping box: both center deltas nonzero, dims distinct,
    # no edge ties — away from every singular set documented on siou_loss
    p0 = np.array(
        [
            gt.cx + 3.0 + rng.uniform(0.5, 2.0),
            gt.cy - 4.0 - rng.uniform(0.5, 2.0),
            gt.w + 3.0 + rng.uniform(0.5, 1.5),
            gt.h - 3.0 - rng.uniform(0.5, 1.5),
        ]
    )
    return grad_check(f, [p0])


def check_bce(seed: int) -> float:
    rng = np.random.default_rng(seed)
    target = 0.3

    def f(p):
        return modality_loss(target, float(p[0])), [
            np.array([modality_loss_grad(target, float(p[0]))])
        ]

    return grad_check(f, [np.array([rng.uniform(0.1, 0.9)])])


def check_cosine_loss(seed: int) -> float:
    rng = np.random.default_rng(seed)
    sched = EpochSchedule(C=2, N=10)

    def f(a, b):
        da, db = template_sim_loss_grad(a, b, sched)
        return template_sim_loss(a, b, sched), [da, db]

    return grad_check(f, [rng.standard_normal(6), rng.standard_normal(6)])


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


def gradient_report(seed: int = 0, inject_bug: bool = False) -> dict[str, float]:
    """Max relative error per registered op.

    ``inject_bug`` corrupts the l1 gradient on purpose — a self-test proving
    the checker actually catches wrong analytic gradients.
    """
    report = {}
    for name, fn in GRADIENT_CHECKS.items():
        if inject_bug and name == "l1":
            gt = BBox(cx=50.0, cy=40.0, w=20.0, h=16.0)

            def broken(p):
                pred = BBox(cx=p[0], cy=p[1], w=p[2], h=p[3])
                return l1_loss(pred, gt), [l1_loss_grad(pred, gt) + 0.05]

            report[name] = grad_check(broken, [gt.as_array() + 2.0])
        else:
            report[name] = fn(seed)
    return report
