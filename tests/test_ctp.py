"""Filter machinery against the naive textbook oracle and the golden trace."""

import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kalman_oracle as oracle
from xmtrack.ctp import (
    BBox,
    FilterBank,
    FilterDegenerateError,
    FilterState,
    FrameInput,
    MotionKind,
    MotionModel,
    SessionConfig,
    TrackerSession,
    box2state,
    box_limits,
    capped_multiplier,
    ctp_predict,
    ctp_update,
    cv_transition,
    inflate_Q,
    make_filter_state,
    reliability,
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
    assert BBox(*box2state(b)[:4]) == b
    with pytest.raises(ValueError):
        box2state(BBox(0, 0, -1.0, 5.0))


def test_clip_box_limits():
    lo, hi = box_limits(512.0, 256.0)
    np.testing.assert_array_equal(lo, [0.0, 0.0, 1.0, 1.0])
    np.testing.assert_array_equal(hi, [512.0, 256.0, 512.0, 256.0])
    with pytest.raises(ValueError):
        box_limits(0.0, 512.0)
    # A state past every bound, reported by a session and by a bank row
    # that coasts it through one invalid frame at zero velocity.
    outside = np.array([-20.0, 600.0, 0.2, 1000.0, 0.0, 0.0, 0.0, 0.0])
    clipped = BBox(0.0, 256.0, 1.0, 256.0)
    sess = TrackerSession(BBox(10.0, 10.0, 5.0, 5.0), 512.0, 256.0)
    sess.fs = replace(sess.fs, x=outside)
    assert sess.report_box() == clipped
    bank = FilterBank([BBox(10.0, 10.0, 5.0, 5.0)], [(512.0, 256.0)], [SessionConfig()])
    bank.x = outside[None].copy()
    boxes = bank.step(np.array([False]), np.zeros((1, 4)), np.ones(1))
    np.testing.assert_array_equal(boxes, [clipped.as_array()])


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


def test_capped_multiplier_is_the_plain_power_below_the_cap():
    for theta, cap in ((1.5, 10.0), (1.01, 1e6), (2.0, 1.0), (1.0, 10.0), (3.7, 1e300)):
        for k in range(0, 3000):
            plain = theta**k if k * np.log(theta) < 700.0 else float("inf")
            want = plain if plain < cap else cap
            assert capped_multiplier(theta, cap, k) == want, (theta, cap, k)


def test_inflation_survives_a_streak_past_the_overflow_point():
    # 1.5**1751 overflows a double; the session used to die on that frame.
    cfg = SessionConfig(motion=MotionModel(MotionKind.COORDINATED_TURN, 0.02))
    sess = TrackerSession(BBox(256.0, 256.0, 30.0, 30.0), 512.0, 512.0, cfg)
    invalid = TriStateDecision(TriState.INVALID, 0.5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2000):
            sess.step(FrameInput(observed=None, s=0.0, decision=invalid))
        fs = sess.fs
        assert fs.invalid_streak == 2000
        np.testing.assert_array_equal(fs.Q, cfg.cap_mult * fs.Q_base)
        for p in (fs.P, ctp_update(fs, fs.x[:4] + 1.0, cfg.epsilon).P):  # r at its floor
            assert np.isfinite(p).all()
            np.testing.assert_array_equal(p, p.T)
            assert np.linalg.eigvalsh(p).min() > -1e-9


def test_step_rejects_non_finite_input_before_changing_state():
    sess = TrackerSession(BBox(100.0, 100.0, 30.0, 30.0), 512.0, 512.0)
    rgb = TriStateDecision(TriState.RGB, 0.1, 0.0)
    sess.step(FrameInput(observed=BBox(103.0, 99.0, 30.0, 31.0), s=0.9, decision=rgb))
    before = sess.fs
    nan = float("nan")
    for frame in (
        FrameInput(observed=BBox(nan, 100.0, 30.0, 30.0), s=0.9, decision=rgb),
        FrameInput(observed=BBox(100.0, 100.0, 30.0, float("inf")), s=0.9, decision=rgb),
        FrameInput(observed=BBox(100.0, 100.0, 30.0, 30.0), s=nan, decision=rgb),
        FrameInput(observed=BBox(100.0, 100.0, 30.0, 30.0), s=0.9,
                   decision=TriStateDecision(TriState.NIR, nan, 0.0)),
    ):
        with pytest.raises(ValueError):
            sess.step(frame)
        after = sess.fs
        np.testing.assert_array_equal(after.x, before.x)
        np.testing.assert_array_equal(after.P, before.P)
        assert after.invalid_streak == before.invalid_streak
    fs = make_filter_state(BBox(10, 10, 5, 5))
    for z, r in (([10.0, nan, 5.0, 5.0], 1.0), ([10.0, 10.0, 5.0, 5.0], float("inf")),
                 ([10.0, 10.0, 5.0, 5.0], nan)):
        with pytest.raises(ValueError):
            ctp_update(fs, np.array(z), r)


def _bank_configs():
    turn = MotionModel(MotionKind.COORDINATED_TURN, -0.03)
    return [
        SessionConfig(use_reliability=False, inflate_on_invalid=False),
        SessionConfig(motion=turn, theta=2.0, cap_mult=5.0, epsilon=0.2),
        SessionConfig(motion=turn, r_diag=(1.0, 2.0, 3.0, 4.0), q_diag=(0.3,) * 8),
    ]


def test_bank_rows_match_their_own_single_row_runs():
    rng = np.random.default_rng(8)
    configs = _bank_configs()
    b0 = [BBox(100.0 + 50 * b, 200.0, 30.0 + b, 28.0) for b in range(len(configs))]
    sizes = [(512.0, 512.0), (300.0, 400.0), (512.0, 256.0)]
    bank = FilterBank(b0, sizes, configs)
    singles = [FilterBank([b], [size], [cfg]) for b, size, cfg in zip(b0, sizes, configs)]
    saw_mixed = False
    for t in range(60):
        valid = rng.random(len(configs)) < 0.7
        if t == 5:
            valid = np.array([True, False, True])  # one step with both kinds, always
        saw_mixed |= bool(valid.any() and not valid.all())
        z = np.array([bank.x[b, :4] + rng.normal(scale=3.0, size=4) for b in range(len(configs))])
        z[~valid] = np.nan  # never read on invalid rows
        r = bank.reliability(rng.uniform(0.0, 1.0, len(configs)), rng.uniform(0.0, 1.0, len(configs)))
        boxes = bank.step(valid, z, r)
        for b, single in enumerate(singles):
            one = single.step(valid[b:b + 1], z[b:b + 1], r[b:b + 1])
            np.testing.assert_allclose(boxes[b], one[0], rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(bank.P[b], single.P[0], rtol=0.0, atol=1e-9)
            assert bank.streak[b] == single.streak[0]
            assert bank.q_mult[b] == single.q_mult[0]
    assert saw_mixed


def test_single_row_bank_is_the_session():
    cfg = _bank_configs()[1]
    b0 = BBox(120.0, 300.0, 32.0, 24.0)
    sess = TrackerSession(b0, 512.0, 512.0, cfg)
    bank = FilterBank([b0], [(512.0, 512.0)], [cfg])
    rng = np.random.default_rng(9)
    for t in range(40):
        if 10 <= t < 18:
            decision = TriStateDecision(TriState.INVALID, 0.5, 1.0)
            box = sess.step(FrameInput(observed=None, s=0.0, decision=decision))
            want = bank.step(np.array([False]), np.zeros((1, 4)), np.ones(1))
        else:
            z = bank.x[0, :4] + rng.normal(scale=2.0, size=4)
            s, m = float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.0, 1.0))
            decision = TriStateDecision(TriState.RGB, m, 0.0)
            box = sess.step(FrameInput(observed=BBox(*z), s=s, decision=decision))
            want = bank.step(np.array([True]), z[None], np.atleast_1d(bank.reliability(s, m)))
        assert (box.cx, box.cy, box.w, box.h) == tuple(want[0].tolist())
        assert sess.report_box() == box


def test_session_steps_through_the_single_filter_functions(monkeypatch):
    # Code that wraps ctp_update, inflate_Q and ctp_predict (a profiler, a
    # tracer) sees every session step: the session looks them up per call.
    import xmtrack.ctp as ctp_module

    calls = {"ctp_update": 0, "inflate_Q": 0, "ctp_predict": 0}
    for name in calls:
        fn = getattr(ctp_module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ctp_module, name, counted)
    sess = TrackerSession(BBox(100.0, 100.0, 30.0, 30.0), 512.0, 512.0)
    rgb = TriStateDecision(TriState.RGB, 0.1, 0.0)
    invalid = TriStateDecision(TriState.INVALID, 0.5, 1.0)
    for t in range(10):
        if t % 3 == 2:
            sess.step(FrameInput(observed=None, s=0.0, decision=invalid))
        else:
            sess.step(FrameInput(observed=BBox(100.0 + t, 100.0, 30.0, 30.0), s=0.9, decision=rgb))
    assert calls == {"ctp_update": 7, "inflate_Q": 3, "ctp_predict": 10}


def test_bank_row_with_singular_innovation_covariance_raises():
    configs = _bank_configs()
    bank = FilterBank([BBox(100.0, 100.0, 30.0, 30.0)] * 3, [(512.0, 512.0)] * 3, configs)
    bank.P[1] = 0.0
    bank.R[1] = 0.0
    x, p = bank.x.copy(), bank.P.copy()
    z = bank.x[:, :4].copy()
    with pytest.raises(FilterDegenerateError):
        bank.step(np.array([True, True, True]), z, np.ones(3))
    with pytest.raises(FilterDegenerateError):
        bank.step(np.array([False, True, False]), z, np.ones(3))
    np.testing.assert_array_equal(bank.x, x)
    np.testing.assert_array_equal(bank.P, p)
    assert not bank.streak.any()
    bank.step(np.array([True, False, True]), z, np.ones(3))  # the singular row is not read


def test_bank_step_that_overflows_the_covariance_changes_nothing():
    bank = FilterBank([BBox(100.0, 100.0, 30.0, 30.0)] * 2, [(512.0, 512.0)] * 2, _bank_configs()[:2])
    bank.Q_base[1] = 1e308 * np.eye(8)
    x, p = bank.x.copy(), bank.P.copy()
    for valid in ([True, True], [False, True], [False, False]):
        with pytest.raises(FilterDegenerateError):
            bank.step(np.array(valid), bank.x[:, :4] + 1.0, np.ones(2))
        np.testing.assert_array_equal(bank.x, x)
        np.testing.assert_array_equal(bank.P, p)
        assert not bank.streak.any() and (bank.q_mult == 1.0).all()


def test_bank_rejects_non_finite_input_on_a_valid_row():
    bank = FilterBank([BBox(100.0, 100.0, 30.0, 30.0)] * 2, [(512.0, 512.0)] * 2, _bank_configs()[:2])
    x = bank.x.copy()
    z = np.array([[100.0, 100.0, 30.0, 30.0], [100.0, np.nan, 30.0, 30.0]])
    with pytest.raises(ValueError):
        bank.step(np.array([True, True]), z, np.ones(2))
    with pytest.raises(ValueError):
        bank.step(np.array([True, False]), z[:1].repeat(2, axis=0), np.array([np.inf, 1.0]))
    np.testing.assert_array_equal(bank.x, x)
    bank.step(np.array([True, False]), z, np.ones(2))  # NaN on the invalid row is not read


def test_bank_rejects_misshapen_setup():
    cfg = SessionConfig()
    with pytest.raises(ValueError):
        FilterBank([BBox(1, 1, 1, 1)], [(512.0, 512.0)], [cfg, cfg])
    with pytest.raises(ValueError):
        FilterBank([], [], [])
    with pytest.raises(ValueError):
        FilterBank([BBox(1, 1, 1, 1)], [(0.0, 512.0)], [cfg])


def test_transition_matrix_is_built_once_and_read_only():
    model = MotionModel(MotionKind.COORDINATED_TURN, 0.05)
    f = transition_matrix(model)
    assert transition_matrix(MotionModel(MotionKind.COORDINATED_TURN, 0.05)) is f
    assert not f.flags.writeable
    with pytest.raises(ValueError):
        f[0, 4] = 2.0
    np.testing.assert_array_equal(f, turn_transition(0.05))


def test_covariance_stays_symmetric_psd_at_the_reliability_floor_and_past_the_cap():
    # r is either at its floor or uniform above it, and blackouts run up to
    # 3x the 6 frames the default multiplier takes to reach its cap.
    rng = np.random.default_rng(14)
    eps = SessionConfig().epsilon
    model = MotionModel(MotionKind.COORDINATED_TURN, 0.02)
    fs = make_filter_state(BBox(256, 256, 30, 30))
    longest = floor_updates = 0
    for _ in range(150):
        steps = ["valid"] * int(rng.integers(1, 4)) + ["invalid"] * int(rng.integers(0, 19))
        for kind in steps:
            if kind == "valid":
                r = eps if rng.random() < 0.5 else float(rng.uniform(eps, 1.0))
                floor_updates += r == eps
                fs = ctp_update(fs, fs.x[:4] + rng.normal(scale=3.0, size=4), r)
            else:
                fs = inflate_Q(fs)
                longest = max(longest, fs.invalid_streak)
            fs = ctp_predict(fs, model)
            assert np.isfinite(fs.P).all()
            np.testing.assert_array_equal(fs.P, fs.P.T)
            assert np.linalg.eigvalsh(fs.P).min() > -1e-9
    assert longest > 6 and floor_updates > 50
