"""Filter machinery against the naive textbook oracle and the golden trace."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kalman_oracle as oracle
from xmtrack.ctp import (
    BBox,
    FilterDegenerateError,
    FilterState,
    FrameInput,
    MotionKind,
    MotionModel,
    SessionConfig,
    TrackerSession,
    box2state,
    clip_box,
    ctp_predict,
    ctp_update,
    cv_transition,
    inflate_Q,
    make_filter_state,
    reliability,
    state2box,
    transition_matrix,
    turn_transition,
)
from xmtrack.state_switch import TriState, TriStateDecision


def random_filter_state(rng) -> FilterState:
    a = rng.normal(size=(8, 8))
    p = a @ a.T + np.eye(8)  # comfortably SPD
    q = np.diag(rng.uniform(0.01, 1.0, size=8))
    r = np.diag(rng.uniform(0.5, 8.0, size=4))
    return FilterState(
        x=rng.normal(scale=50.0, size=8), P=p, Q=q.copy(), R=r, Q_base=q.copy()
    )


def test_update_matches_textbook_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        fs = random_filter_state(rng)
        z = rng.normal(scale=50.0, size=4)
        r = float(rng.uniform(1e-3, 1.0))
        got = ctp_update(fs, z, r)
        want_x, want_p = oracle.update(fs.x, fs.P, z, fs.R, r)
        np.testing.assert_allclose(got.x, want_x, atol=1e-9)
        np.testing.assert_allclose(got.P, want_p, atol=1e-9)


def test_predict_matches_textbook_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        fs = random_filter_state(rng)
        omega = float(rng.uniform(-0.1, 0.1))
        model = MotionModel(MotionKind.COORDINATED_TURN, omega)
        got = ctp_predict(fs, model)
        want_x, want_p = oracle.predict(fs.x, fs.P, oracle.turn_matrix(omega), fs.Q)
        np.testing.assert_allclose(got.x, want_x, atol=1e-9)
        np.testing.assert_allclose(got.P, want_p, atol=1e-9)


def test_reliability_values_and_floor():
    assert reliability(0.8, 1.0) == 0.8
    assert reliability(0.3, 0.0) == 0.3  # |2*0 - 1| = 1
    for s in np.linspace(0.0, 1.0, 100):
        assert reliability(float(s), 0.5) == 1e-3
    assert reliability(0.0, 1.0) == 1e-3  # zero confidence floors too


def test_reliability_rejects_out_of_range_inputs():
    with pytest.raises(ValueError):
        reliability(1.5, 0.5)
    with pytest.raises(ValueError):
        reliability(0.5, -0.1)


def test_update_rejects_nonpositive_reliability():
    rng = np.random.default_rng(2)
    fs = random_filter_state(rng)
    with pytest.raises(ValueError):
        ctp_update(fs, np.zeros(4), 0.0)


def test_q_inflation_schedule_and_reset():
    fs = make_filter_state(BBox(100, 100, 30, 30))
    expected_mults = [1.5, 2.25, 3.375, 5.0625, 7.59375, 10.0, 10.0]
    for k, mult in enumerate(expected_mults, start=1):
        fs = inflate_Q(fs)
        assert fs.invalid_streak == k
        np.testing.assert_array_equal(fs.Q, mult * fs.Q_base)
    # one valid update resets both the streak and Q
    fs = ctp_update(fs, np.array([100.0, 100.0, 30.0, 30.0]), 1.0)
    assert fs.invalid_streak == 0
    np.testing.assert_array_equal(fs.Q, fs.Q_base)


def test_turn_transition_at_zero_rate_is_cv():
    np.testing.assert_array_equal(turn_transition(0.0), cv_transition())
    np.testing.assert_array_equal(turn_transition(1e-15), cv_transition())


def test_turn_transition_preserves_speed():
    rng = np.random.default_rng(3)
    for _ in range(10):
        omega = float(rng.uniform(-0.2, 0.2))
        f = turn_transition(omega)
        x = rng.normal(size=8)
        x2 = f @ x
        assert abs(np.hypot(x2[4], x2[5]) - np.hypot(x[4], x[5])) < 1e-12


def test_transition_matrix_dispatch():
    cv_model = MotionModel(MotionKind.CONSTANT_VELOCITY, turn_rate=0.5)
    np.testing.assert_array_equal(transition_matrix(cv_model), cv_transition())
    turn_model = MotionModel(MotionKind.COORDINATED_TURN, turn_rate=0.05)
    np.testing.assert_array_equal(transition_matrix(turn_model), turn_transition(0.05))


def test_covariance_stays_symmetric_psd_over_random_schedule():
    rng = np.random.default_rng(4)
    fs = make_filter_state(BBox(256, 256, 30, 30))
    model = MotionModel(MotionKind.COORDINATED_TURN, 0.02)
    for _ in range(1000):
        choice = rng.random()
        if choice < 0.45:
            z = fs.x[:4] + rng.normal(scale=3.0, size=4)
            fs = ctp_update(fs, z, float(rng.uniform(1e-3, 1.0)))
        elif choice < 0.7:
            fs = inflate_Q(fs)
        fs = ctp_predict(fs, model)
        np.testing.assert_array_equal(fs.P, fs.P.T)
        assert np.linalg.eigvalsh(fs.P).min() > -1e-9


def test_lower_reliability_keeps_more_uncertainty():
    # posterior covariance is monotone in r: less reliable measurement,
    # larger remaining P (in the PSD order)
    rng = np.random.default_rng(5)
    for _ in range(10):
        fs = random_filter_state(rng)
        z = rng.normal(scale=20.0, size=4)
        p_low = ctp_update(fs, z, 0.05).P
        p_high = ctp_update(fs, z, 1.0).P
        assert np.linalg.eigvalsh(p_low - p_high).min() > -1e-12


def test_update_with_exact_observation_moves_nothing():
    rng = np.random.default_rng(6)
    fs = random_filter_state(rng)
    z = fs.x[:4].copy()  # innovation is exactly zero
    got = ctp_update(fs, z, 0.7)
    np.testing.assert_allclose(got.x, fs.x, atol=1e-12)


def test_degenerate_innovation_covariance_raises():
    fs = make_filter_state(BBox(10, 10, 5, 5), p0_diag=(0.0,) * 8, r_diag=(0.0,) * 4)
    with pytest.raises(FilterDegenerateError):
        ctp_update(fs, np.array([10.0, 10.0, 5.0, 5.0]), 1.0)


def test_box_state_roundtrip_and_validation():
    b = BBox(12.5, 400.0, 31.0, 17.0)
    np.testing.assert_array_equal(box2state(b)[:4], b.as_array())
    np.testing.assert_array_equal(box2state(b)[4:], np.zeros(4))
    assert state2box(box2state(b)) == b
    with pytest.raises(ValueError):
        box2state(BBox(0, 0, -1.0, 5.0))


def test_clip_box_limits():
    clipped = clip_box(BBox(-20.0, 600.0, 0.2, 1000.0), 512.0, 512.0)
    assert clipped == BBox(0.0, 512.0, 1.0, 512.0)
    with pytest.raises(ValueError):
        clip_box(BBox(1, 1, 1, 1), 0.0, 512.0)


def test_invalid_streak_coasts_on_pure_cv_extrapolation():
    """During invalid frames the reported centers advance by exactly the
    frozen velocity estimate — no observation information leaks in."""
    cfg = SessionConfig()  # CV motion
    sess = TrackerSession(BBox(100.0, 200.0, 30.0, 30.0), 512.0, 512.0, cfg)
    rng = np.random.default_rng(7)
    decision = TriStateDecision(TriState.RGB, 0.05, 0.0)
    for t in range(1, 15):
        z = BBox(100.0 + 4.0 * t, 200.0, 30.0, 30.0)
        sess.step(FrameInput(observed=z, s=0.95, decision=decision))
    x0 = sess.fs.x.copy()
    invalid = TriStateDecision(TriState.INVALID, 0.5, 1.0)
    for k in range(1, 8):
        box = sess.step(FrameInput(observed=None, s=0.0, decision=invalid))
        assert abs(box.cx - (x0[0] + k * x0[4])) < 1e-9
        assert abs(box.cy - (x0[1] + k * x0[5])) < 1e-9


def test_session_replays_golden_trace(fixtures_dir: Path):
    trace = json.loads((fixtures_dir / "golden_trace.json").read_text())
    assert trace["format"] == "xmtrack-golden-trace-v1"
    cfg = SessionConfig(
        p0_diag=tuple(trace["p0_diag"]),
        q_diag=tuple(trace["q_diag"]),
        r_diag=tuple(trace["r_diag"]),
        theta=trace["theta"],
        cap_mult=trace["cap_mult"],
        epsilon=trace["epsilon"],
        motion=MotionModel(MotionKind.COORDINATED_TURN, trace["omega"]),
    )
    sess = TrackerSession(
        BBox(*trace["b0"]), trace["frame_width"], trace["frame_height"], cfg
    )
    worst = 0.0
    for frame, expected in zip(trace["frames"], trace["reported"]):
        if frame["valid"]:
            state = TriState.NIR if frame["m"] >= 0.5 else TriState.RGB
            decision = TriStateDecision(state, frame["m"], 0.0)
            box = sess.step(
                FrameInput(observed=BBox(*frame["z"]), s=frame["s"], decision=decision)
            )
        else:
            decision = TriStateDecision(TriState.INVALID, frame["m"], 1.0)
            box = sess.step(FrameInput(observed=None, s=frame["s"], decision=decision))
        got = (box.cx, box.cy, box.w, box.h)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, expected)))
    assert worst < 1e-9


def test_session_without_reliability_pins_r_to_one():
    b0 = BBox(50.0, 50.0, 20.0, 20.0)
    z = BBox(58.0, 47.0, 21.0, 19.0)
    decision = TriStateDecision(TriState.NIR, 0.9, 0.0)
    plain = TrackerSession(b0, 512, 512, SessionConfig(use_reliability=False))
    plain.step(FrameInput(observed=z, s=0.2, decision=decision))
    manual = TrackerSession(b0, 512, 512, SessionConfig(use_reliability=True))
    manual.step(FrameInput(observed=z, s=1.0, decision=TriStateDecision(TriState.RGB, 0.0, 0.0)))
    # s=1, m=0 gives r=1 exactly, so both sessions did the same update
    np.testing.assert_allclose(plain.fs.x, manual.fs.x, atol=1e-12)


def test_session_valid_frame_requires_observation():
    sess = TrackerSession(BBox(10, 10, 5, 5), 512, 512)
    with pytest.raises(ValueError):
        sess.step(
            FrameInput(observed=None, s=0.5, decision=TriStateDecision(TriState.RGB, 0.1, 0.0))
        )


def test_session_inflation_can_be_disabled():
    cfg = SessionConfig(inflate_on_invalid=False)
    sess = TrackerSession(BBox(100, 100, 30, 30), 512, 512, cfg)
    invalid = TriStateDecision(TriState.INVALID, 0.5, 1.0)
    for _ in range(5):
        sess.step(FrameInput(observed=None, s=0.0, decision=invalid))
    assert sess.fs.invalid_streak == 5
    np.testing.assert_array_equal(sess.fs.Q, sess.fs.Q_base)


@pytest.mark.parametrize(
    "bad",
    [
        {"p0_diag": (10.0,) * 7},
        {"q_diag": (0.1,) * 9},
        {"r_diag": (4.0, 4.0, 4.0)},
        {"r_diag": (4.0, 4.0, 0.0, 4.0)},
        {"r_diag": (4.0, 4.0, -4.0, 4.0)},
        {"q_diag": (0.1,) * 7 + (float("inf"),)},
        {"p0_diag": (10.0,) * 7 + (float("nan"),)},
        {"r_diag": (4.0, 4.0, "4", 4.0)},
        {"theta": 0.99},
        {"theta": float("nan")},
        {"theta": True},
        {"cap_mult": 0.5},
        {"epsilon": 0.0},
        {"epsilon": 1.01},
        {"rho": -0.01},
        {"rho": 1.01},
        {"rho": "0.4"},
        {"use_reliability": "false"},
        {"inflate_on_invalid": 1},
        {"motion": "ct"},
    ],
)
def test_session_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        SessionConfig(**bad)
    with pytest.raises(ValueError):  # replace re-runs the checks
        replace(SessionConfig(), **bad)


def test_session_config_accepts_range_edges_and_lists():
    cfg = SessionConfig(theta=1.0, cap_mult=1.0, epsilon=1.0, rho=0.0, q_diag=[0.5] * 8)
    assert cfg.q_diag == (0.5,) * 8
    assert SessionConfig(rho=1, epsilon=1e-12).rho == 1


def test_motion_model_rejects_bad_values():
    for kwargs in ({"kind": "ct"}, {"turn_rate": float("nan")}, {"turn_rate": "0.1"}):
        with pytest.raises(ValueError):
            MotionModel(**kwargs)
