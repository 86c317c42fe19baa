"""Loss values frozen by hand plus central-difference checks on gradients."""

import math

import numpy as np
import pytest

from xmtrack.ctp import BBox
from xmtrack.losses import (
    ALPHA_MODALITY,
    EpochSchedule,
    decayed_ce_weight,
    l1_pair,
    modality_pair,
    siou_pair,
    template_sim_pair,
    tracking_loss,
)

GT = BBox(100.0, 100.0, 30.0, 30.0)


def central_diff_box(fn, box, i, h=1e-6):
    coords = [box.cx, box.cy, box.w, box.h]
    up = list(coords)
    dn = list(coords)
    up[i] += h
    dn[i] -= h
    return (fn(BBox(*up)) - fn(BBox(*dn))) / (2 * h)


# --- L1 -------------------------------------------------------------------


def test_l1_zero_at_match_and_quarter_per_unit_offset():
    assert l1_pair(GT, GT).value == 0.0
    assert l1_pair(BBox(101.0, 100.0, 30.0, 30.0), GT).value == 0.25
    assert l1_pair(BBox(101.0, 99.0, 31.0, 29.0), GT).value == 1.0


def test_l1_grad_is_quarter_sign():
    pred = BBox(103.0, 98.0, 34.0, 25.0)
    (grad,) = l1_pair(pred, GT).grad_fn(1.0)
    np.testing.assert_array_equal(grad, [0.25, -0.25, 0.25, -0.25])


def test_l1_grad_matches_central_difference():
    pred = BBox(91.0, 112.0, 26.5, 41.0)
    (grad,) = l1_pair(pred, GT).grad_fn(1.0)
    for i in range(4):
        num = central_diff_box(lambda b: l1_pair(b, GT).value, pred, i)
        assert abs(grad[i] - num) < 1e-8


@pytest.mark.parametrize("w", [0.0, -5.0, float("nan"), float("inf")])
def test_l1_rejects_a_degenerate_box_on_either_side(w):
    bad = BBox(1.0, 1.0, w, 1.0)
    no_center = BBox(float("nan"), 1.0, 2.0, 2.0)
    for pred, gt in ((bad, GT), (GT, bad), (BBox(1.0, 1.0, 1.0, w), GT), (no_center, GT)):
        with pytest.raises(ValueError, match="l1_pair: degenerate box"):
            l1_pair(pred, gt)
        with pytest.raises(ValueError, match="siou_pair: degenerate box"):
            siou_pair(pred, gt)


# --- SIoU -----------------------------------------------------------------


def test_siou_zero_on_exact_match():
    assert siou_pair(GT, GT).value == 0.0


def test_siou_disjoint_boxes_exceed_one():
    far = BBox(400.0, 400.0, 30.0, 30.0)
    loss = siou_pair(far, GT).value
    assert 1.0 < loss <= 3.0  # 1 - IoU contributes its full 1


def test_siou_grows_with_separation():
    losses = [
        siou_pair(BBox(100.0 + dx, 100.0, 30.0, 30.0), GT).value for dx in (0, 5, 15, 40, 80)
    ]
    assert all(a < b for a, b in zip(losses, losses[1:]))


def test_siou_grad_matches_central_difference_generic_points():
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(40):
        pred = BBox(
            float(rng.uniform(60, 140)),
            float(rng.uniform(60, 140)),
            float(rng.uniform(15, 45)),
            float(rng.uniform(15, 45)),
        )
        # skip singular configurations (ties in the min/max selections make
        # the loss non-differentiable there)
        if abs(pred.cx - GT.cx) < 0.5 or abs(pred.cy - GT.cy) < 0.5:
            continue
        if abs(pred.w - GT.w) < 0.5 or abs(pred.h - GT.h) < 0.5:
            continue
        (grad,) = siou_pair(pred, GT).grad_fn(1.0)
        for i in range(4):
            num = central_diff_box(lambda b: siou_pair(b, GT).value, pred, i)
            denom = max(1e-8, abs(num))
            assert abs(grad[i] - num) / denom < 1e-4
        checked += 1
    assert checked >= 20


# --- tracking loss & schedule ----------------------------------------------


def test_decayed_ce_weight_endpoints_and_midpoint():
    assert decayed_ce_weight(EpochSchedule(C=0, N=10)) == 1.0
    assert decayed_ce_weight(EpochSchedule(C=10, N=10)) == 0.0
    assert decayed_ce_weight(EpochSchedule(C=5, N=10)) == 0.5


def test_tracking_loss_ce_weight_at_schedule_endpoints():
    # with pred == gt both box terms vanish, isolating the CE coefficient
    start = EpochSchedule(C=0, N=50)
    end = EpochSchedule(C=50, N=50)
    assert tracking_loss(GT, GT, ce_term=1.0, sched=start) == 2.0
    assert tracking_loss(GT, GT, ce_term=1.0, sched=end) == 0.0


def test_tracking_loss_is_weighted_sum():
    pred = BBox(104.0, 93.0, 35.0, 28.0)
    sched = EpochSchedule(C=3, N=12)
    ce = 0.37
    expected = (
        5.0 * l1_pair(pred, GT).value
        + 2.0 * siou_pair(pred, GT).value
        + 2.0 * (1.0 - 3.0 / 12.0) * ce
    )
    assert math.isclose(tracking_loss(pred, GT, ce, sched), expected, rel_tol=1e-12)


@pytest.mark.parametrize(
    "ce_term, sched",
    [
        (float("nan"), EpochSchedule(C=0, N=4)),
        (float("inf"), EpochSchedule(C=4, N=4)),  # weight 0: 0 * inf is NaN
        (-3.0, EpochSchedule(C=0, N=4)),
        (True, EpochSchedule(C=0, N=4)),
        (10**400, EpochSchedule(C=0, N=4)),  # an int past the float range
    ],
    ids=["nan", "inf", "negative", "bool", "int_past_the_float_range"],
)
def test_tracking_loss_rejects_a_ce_term_that_is_not_a_finite_non_negative_number(ce_term, sched):
    box = BBox(10.0, 10.0, 5.0, 5.0)
    with pytest.raises(ValueError, match="tracking_loss: ce_term"):
        tracking_loss(box, box, ce_term, sched)


def test_epoch_schedule_validation():
    with pytest.raises(ValueError):
        EpochSchedule(C=5, N=0)
    with pytest.raises(ValueError):
        EpochSchedule(C=-1, N=10)
    with pytest.raises(ValueError):
        EpochSchedule(C=11, N=10)
    for c, n in ((0, float("inf")), (0.5, 2), (1, 2.5), (True, 2), (0, True)):
        with pytest.raises(ValueError, match="must be ints"):
            EpochSchedule(C=c, N=n)


# --- modality loss ----------------------------------------------------------


def _bce(target, prob):
    return float(modality_pair(target, prob).value) / ALPHA_MODALITY


def test_bce_reference_values():
    assert math.isclose(_bce(1.0, 0.5), math.log(2.0), rel_tol=1e-12)
    assert math.isclose(_bce(0.0, 0.5), math.log(2.0), rel_tol=1e-12)
    assert math.isclose(_bce(1.0, 0.9), -math.log(0.9), rel_tol=1e-12)


def test_bce_clamps_instead_of_diverging():
    assert np.isfinite(_bce(1.0, 0.0))
    assert np.isfinite(_bce(0.0, 1.0))


def test_modality_loss_doubled_bce():
    assert abs(modality_pair(1.0, 0.5).value - 2.0 * math.log(2.0)) < 1e-12
    assert abs(modality_pair(0.0, 0.5).value - 2.0 * math.log(2.0)) < 1e-12
    assert modality_pair(1.0, 1.0).value == pytest.approx(0.0, abs=1e-6)


def test_modality_loss_grad_matches_central_difference():
    for m, m_hat in ((1.0, 0.3), (0.0, 0.7), (1.0, 0.92), (0.0, 0.08)):
        h = 1e-7
        num = (modality_pair(m, m_hat + h).value - modality_pair(m, m_hat - h).value) / (2 * h)
        (grad,) = modality_pair(m, m_hat).grad_fn(1.0)
        assert abs(float(grad) - num) < 1e-5


@pytest.mark.parametrize(
    "m_hat",
    [float("nan"), float("inf"), float("-inf"), 10**400, True],
    ids=["nan", "inf", "-inf", "int_past_the_float_range", "bool"],
)
def test_modality_loss_rejects_a_non_finite_prediction(m_hat):
    with pytest.raises(ValueError, match="modality_pair: prediction"):
        modality_pair(1.0, m_hat)


def test_modality_loss_clamps_a_finite_prediction_outside_the_unit_interval():
    assert modality_pair(1.0, 1.5).value == modality_pair(1.0, 1.0).value
    assert modality_pair(1.0, -0.5).value == modality_pair(1.0, 0.0).value
    assert np.isfinite(modality_pair(1.0, -0.5).value)
    for m_hat in (1.5, -0.5):
        (grad,) = modality_pair(1.0, m_hat).grad_fn(1.0)
        assert float(grad) == 0.0


# --- template similarity loss -----------------------------------------------


def test_template_loss_cosine_reference_point():
    f = np.array([1.0, 0.0])
    f_hat = np.array([1.0, 1.0])
    sched = EpochSchedule(C=0, N=10)
    expected = 2.0 * (1.0 - 1.0 / math.sqrt(2.0))
    assert math.isclose(template_sim_pair(f, f_hat, sched).value, expected, rel_tol=1e-12)


def test_template_loss_vanishes_at_schedule_end():
    rng = np.random.default_rng(1)
    f, f_hat = rng.normal(size=6), rng.normal(size=6)
    assert template_sim_pair(f, f_hat, EpochSchedule(C=8, N=8)).value == 0.0


def test_template_loss_zero_for_parallel_features():
    f = np.array([2.0, -1.0, 0.5])
    assert template_sim_pair(f, 3.0 * f, EpochSchedule(C=0, N=4)).value == pytest.approx(
        0.0, abs=1e-12
    )


def test_template_loss_grad_matches_central_difference():
    rng = np.random.default_rng(2)
    f, f_hat = rng.normal(size=5), rng.normal(size=5)
    sched = EpochSchedule(C=1, N=4)
    gf, gf_hat = template_sim_pair(f, f_hat, sched).grad_fn(1.0)
    h = 1e-6
    for i in range(5):
        for vec, grad in ((f, gf), (f_hat, gf_hat)):
            vec[i] += h
            up = template_sim_pair(f, f_hat, sched).value
            vec[i] -= 2 * h
            dn = template_sim_pair(f, f_hat, sched).value
            vec[i] += h
            assert abs(grad[i] - (up - dn) / (2 * h)) < 1e-7


# --- pairs ------------------------------------------------------------------


def test_loss_pairs_are_scalars_whose_grads_scale_with_the_upstream():
    rng = np.random.default_rng(3)
    f, f_hat = rng.normal(size=5), rng.normal(size=5)
    pred = BBox(91.0, 112.0, 26.5, 41.0)
    sched = EpochSchedule(C=1, N=4)
    cases = [
        l1_pair(pred, GT),
        siou_pair(pred, GT),
        modality_pair(0.0, 0.7),
        template_sim_pair(f, f_hat, sched),
    ]
    for pair in cases:
        assert np.shape(pair.value) == ()
        for g1, g3 in zip(pair.grad_fn(1.0), pair.grad_fn(np.asarray(-3.0))):
            np.testing.assert_allclose(g3, -3.0 * np.asarray(g1), rtol=1e-15)
