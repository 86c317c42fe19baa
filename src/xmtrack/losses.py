"""Training-loss family with analytic gradients.

Three components sum into the total objective:

* ``tracking_loss``: 5 * L1 + 2 * SIoU + 2 * ((N-C)/N) * CE, where the CE
  value arrives as an externally computed scalar and only its decayed
  weight is applied here;
* ``modality_pair``: 2 * binary cross-entropy on the predicted modality
  weight;
* ``template_sim_pair``: 2 * ((N-C)/N) * (1 - cosine similarity).

End-to-end training is out of scope; the losses exist standalone so their
values and gradients can be verified.  Each loss ``*_pair`` is a
``core.GradPair`` with a 0-d value and hand-derived gradients, one per
differentiable input.  The SIoU gradient's singular set (coincident
centers, axis-aligned centers, equal dimensions, edge ties) is documented on
``siou_pair``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GradPair, Tensor, as_tensor, cosine_pair, is_int, is_number
from .ctp import BBox

LAMBDA_L1 = 5.0
LAMBDA_SIOU = 2.0
LAMBDA_CE = 2.0
ALPHA_MODALITY = 2.0
ZETA_TEMPLATE = 2.0

PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class EpochSchedule:
    """Current epoch C out of N total; drives the decayed loss weights."""

    C: int
    N: int

    def __post_init__(self):
        if not (is_int(self.C) and is_int(self.N)):
            raise ValueError(f"EpochSchedule: epochs C={self.C!r}, N={self.N!r} must be ints")
        if self.N <= 0:
            raise ValueError(f"EpochSchedule: total epochs must be positive, got {self.N}")
        if not 0 <= self.C <= self.N:
            raise ValueError(f"EpochSchedule: epoch {self.C} outside [0, {self.N}]")


def decayed_ce_weight(sched: EpochSchedule) -> float:
    return (sched.N - sched.C) / sched.N


def _check_boxes(who: str, *boxes: BBox):
    for b in boxes:
        if not (all(map(math.isfinite, (b.cx, b.cy, b.w, b.h))) and b.w > 0 and b.h > 0):
            raise ValueError(f"{who}: degenerate box {b}")


def l1_pair(pred: BBox, gt: BBox) -> GradPair:
    """Mean absolute difference of the box coordinates; subgradient 0 at ties."""
    _check_boxes("l1_pair", pred, gt)
    diff = pred.as_array() - gt.as_array()

    def grad_fn(up: Tensor) -> tuple[Tensor]:
        return (float(up) * (np.sign(diff) / 4.0),)

    return GradPair(as_tensor(np.mean(np.abs(diff))), grad_fn)


def siou_pair(pred: BBox, gt: BBox) -> GradPair:
    """SIoU loss with its gradient w.r.t. (cx, cy, w, h) of pred.

    Loss = 1 - IoU + (distance_cost + shape_cost) / 2 where the angle cost
    Lambda = 2|dx||dy|/sigma^2 sharpens the distance cost through
    gamma = 2 - Lambda; distance terms are 1 - exp(-gamma * (d_axis/enc)^2)
    per axis, shape terms (1 - exp(-|dim - dim_gt|/max(dim, dim_gt)))^4.
    Singular set (gradient only): coincident centers (sigma = 0), dx = 0,
    dy = 0, equal widths/heights, and intersection/enclosure edge ties.
    """
    _check_boxes("siou_pair", pred, gt)
    px, py, pw, ph = pred.cx, pred.cy, pred.w, pred.h
    gx, gy, gw, gh = gt.cx, gt.cy, gt.w, gt.h
    grad = np.zeros(4)

    # --- IoU term -----------------------------------------------------
    pl, pr = px - pw / 2, px + pw / 2
    pt, pb = py - ph / 2, py + ph / 2
    gl, gr = gx - gw / 2, gx + gw / 2
    gt_, gb = gy - gh / 2, gy + gh / 2
    iw = min(pr, gr) - max(pl, gl)
    ih = min(pb, gb) - max(pt, gt_)
    inter = max(0.0, iw) * max(0.0, ih)
    union = pw * ph + gw * gh - inter
    iou_v = inter / union if union > 0 else 0.0

    d_inter = np.zeros(4)
    if iw > 0 and ih > 0:
        rsel = 1.0 if pr < gr else 0.0  # pred supplies the intersection edge
        lsel = 1.0 if pl > gl else 0.0
        bsel = 1.0 if pb < gb else 0.0
        tsel = 1.0 if pt > gt_ else 0.0
        d_iw = np.array([rsel - lsel, 0.0, 0.5 * (rsel + lsel), 0.0])
        d_ih = np.array([0.0, bsel - tsel, 0.0, 0.5 * (bsel + tsel)])
        d_inter = ih * d_iw + iw * d_ih
    d_union = np.array([0.0, 0.0, ph, pw]) - d_inter
    if union > 0:
        d_iou = (d_inter * union - inter * d_union) / (union * union)
    else:
        d_iou = np.zeros(4)
    grad -= d_iou

    # --- distance cost with angle sharpening ---------------------------
    dcx = gx - px
    dcy = gy - py
    s2 = dcx * dcx + dcy * dcy
    a = abs(dcx)
    b = abs(dcy)
    if s2 > 0:
        lam = 2.0 * a * b / s2
        dlam_da = 2.0 * b * (b * b - a * a) / (s2 * s2)
        dlam_db = 2.0 * a * (a * a - b * b) / (s2 * s2)
        dlam_dpx = -math.copysign(1.0, dcx) * dlam_da if dcx != 0 else 0.0
        dlam_dpy = -math.copysign(1.0, dcy) * dlam_db if dcy != 0 else 0.0
    else:
        lam = 0.0  # continuous limit; gradient singular here
        dlam_dpx = dlam_dpy = 0.0
    gamma = 2.0 - lam
    d_gamma = np.array([-dlam_dpx, -dlam_dpy, 0.0, 0.0])

    cw = max(pr, gr) - min(pl, gl)
    ch = max(pb, gb) - min(pt, gt_)
    enc_rsel = 1.0 if pr > gr else 0.0  # pred supplies the enclosing edge
    enc_lsel = 1.0 if pl < gl else 0.0
    enc_bsel = 1.0 if pb > gb else 0.0
    enc_tsel = 1.0 if pt < gt_ else 0.0
    d_cw = np.array([enc_rsel - enc_lsel, 0.0, 0.5 * (enc_rsel + enc_lsel), 0.0])
    d_ch = np.array([0.0, enc_bsel - enc_tsel, 0.0, 0.5 * (enc_bsel + enc_tsel)])

    rho_x = (dcx / cw) ** 2
    rho_y = (dcy / ch) ** 2
    d_rho_x = np.zeros(4)
    d_rho_x[0] = -2.0 * dcx / cw**2  # via dcx
    d_rho_x += (-2.0 * dcx * dcx / cw**3) * d_cw  # via enclosing width
    d_rho_y = np.zeros(4)
    d_rho_y[1] = -2.0 * dcy / ch**2
    d_rho_y += (-2.0 * dcy * dcy / ch**3) * d_ch

    ex = math.exp(-gamma * rho_x)
    ey = math.exp(-gamma * rho_y)
    delta = (1.0 - ex) + (1.0 - ey)
    d_delta = ex * (rho_x * d_gamma + gamma * d_rho_x) + ey * (
        rho_y * d_gamma + gamma * d_rho_y
    )

    # --- shape cost -----------------------------------------------------
    def shape_term(dim: float, dim_gt: float) -> tuple[float, float]:
        omega = abs(dim - dim_gt) / max(dim, dim_gt)
        val = (1.0 - math.exp(-omega)) ** 4
        if dim > dim_gt:
            d_omega = dim_gt / (dim * dim)
        elif dim < dim_gt:
            d_omega = -1.0 / dim_gt
        else:
            d_omega = 0.0  # kink; value 0 here anyway
        d_val = 4.0 * (1.0 - math.exp(-omega)) ** 3 * math.exp(-omega) * d_omega
        return val, d_val

    sw, d_sw = shape_term(pw, gw)
    sh, d_sh = shape_term(ph, gh)
    omega_cost = sw + sh
    d_omega_cost = np.array([0.0, 0.0, d_sw, d_sh])

    loss = (1.0 - iou_v) + (delta + omega_cost) / 2.0
    grad += (d_delta + d_omega_cost) / 2.0

    def grad_fn(up: Tensor) -> tuple[Tensor]:
        return (float(up) * grad,)

    return GradPair(as_tensor(loss), grad_fn)


def tracking_loss(pred: BBox, gt: BBox, ce_term: float, sched: EpochSchedule) -> float:
    """lambda_1 * L1 + lambda_2 * SIoU + lambda_3 * ((N-C)/N) * CE.

    ``ce_term`` is a cross-entropy, so a finite (``core.is_number``),
    non-negative number.
    """
    if not (is_number(ce_term) and ce_term >= 0.0):
        raise ValueError(f"tracking_loss: ce_term={ce_term!r} is not a finite, non-negative number")
    return (
        LAMBDA_L1 * float(l1_pair(pred, gt).value)
        + LAMBDA_SIOU * float(siou_pair(pred, gt).value)
        + LAMBDA_CE * decayed_ce_weight(sched) * ce_term
    )


def modality_pair(m: float, m_hat: float) -> GradPair:
    """alpha * BCE(true modality, predicted modality weight), with d/d m_hat.

    BCE clamps the probability to [1e-7, 1 - 1e-7].  A finite ``m_hat``
    outside [0, 1] clamps like any probability, and the gradient is zero in
    the clamped tails; an ``m_hat`` that is not a finite number
    (``core.is_number``) is rejected, and so is a target ``m`` that is not
    a finite number in [0, 1].
    """
    if not (is_number(m) and 0.0 <= m <= 1.0):
        raise ValueError(f"modality_pair: target m={m!r} is not a finite number in [0, 1]")
    if not is_number(m_hat):
        raise ValueError(f"modality_pair: prediction m_hat={m_hat!r} is not a finite number")
    m_hat = float(m_hat)
    clamped = m_hat < PROB_CLAMP or m_hat > 1.0 - PROB_CLAMP
    grad = 0.0 if clamped else ALPHA_MODALITY * (-m / m_hat + (1.0 - m) / (1.0 - m_hat))
    p = min(max(m_hat, PROB_CLAMP), 1.0 - PROB_CLAMP)
    bce = -(m * math.log(p) + (1.0 - m) * math.log(1.0 - p))

    def grad_fn(up: Tensor) -> tuple[Tensor]:
        return (as_tensor(float(up) * grad),)

    return GradPair(as_tensor(ALPHA_MODALITY * bce), grad_fn)


def template_sim_pair(f: Tensor, f_hat: Tensor, sched: EpochSchedule) -> GradPair:
    """zeta * ((N-C)/N) * (1 - cos(f, f_hat)); decays to 0 at the last epoch."""
    cos = cosine_pair(as_tensor(f), as_tensor(f_hat))
    weight = ZETA_TEMPLATE * decayed_ce_weight(sched)

    def grad_fn(up: Tensor) -> tuple[Tensor, Tensor]:
        return cos.grad_fn(as_tensor(-weight * float(up)))

    return GradPair(as_tensor(weight * (1.0 - float(cos.value))), grad_fn)

