"""Filter machinery against the naive textbook oracle and the golden trace."""

import contextlib
import json
import sys
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
    FrameInput,
    MotionKind,
    MotionModel,
    SessionConfig,
    TrackerSession,
    box2state,
    ctp_predict,
    ctp_update,
    inflate_Q,
    reliability,
    turn_transition,
)
from xmtrack.state_switch import TriState, TriStateDecision


def random_filter_row(rng):
    """x (1, 8), P (1, 8, 8), Q (1, 8, 8) and R (1, 4, 4) of one random filter."""
    a = rng.normal(size=(8, 8))
    p = a @ a.T + np.eye(8)  # comfortably SPD
    q = np.diag(rng.uniform(0.01, 1.0, size=8))
    r = np.diag(rng.uniform(0.5, 8.0, size=4))
    return rng.normal(scale=50.0, size=8)[None], p[None], q[None], r[None]


def default_filter_row(b0: BBox):
    """x, P, R and Q_base of a fresh default filter at b0, each a (1, ...) stack."""
    cfg = SessionConfig()
    p, r, q = (np.diag(d)[None] for d in (cfg.p0_diag, cfg.r_diag, cfg.q_diag))
    return box2state(b0)[None], p, r, q


def test_update_matches_textbook_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, p, _, r_mat = random_filter_row(rng)
        z = rng.normal(scale=50.0, size=4)
        r = float(rng.uniform(1e-3, 1.0))
        got_x, got_p = ctp_update(x, p, r_mat, np.array([r]), z)
        want_x, want_p = oracle.update(x[0], p[0], z, r_mat[0], r)
        np.testing.assert_allclose(got_x[0], want_x, atol=1e-9)
        np.testing.assert_allclose(got_p[0], want_p, atol=1e-9)


def test_predict_matches_textbook_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, p, q, _ = random_filter_row(rng)
        omega = float(rng.uniform(-0.1, 0.1))
        f = turn_transition(omega)
        got_x, got_p = ctp_predict(x, p, f[None], q)
        want_x, want_p = oracle.predict(x[0], p[0], oracle.turn_matrix(omega), q[0])
        np.testing.assert_allclose(got_x[0], want_x, atol=1e-9)
        np.testing.assert_allclose(got_p[0], want_p, atol=1e-9)


def test_reliability_values_and_floor():
    assert reliability(0.8, 1.0) == 0.8
    assert reliability(0.3, 0.0) == 0.3  # |2*0 - 1| = 1
    for s in np.linspace(0.0, 1.0, 100):
        assert reliability(float(s), 0.5) == 1e-3
    assert reliability(0.0, 1.0) == 1e-3  # zero confidence floors too


def test_update_guard_rejects_each_bad_z_or_r_entry_of_a_stack():
    message = "ctp update: observation z must be finite and reliability r finite positive"
    inputs = random_filter_stack(np.random.default_rng(8), 3)
    cases = [(4, (row, col), v) for row in range(3) for col in range(4) for v in (np.nan, np.inf, -np.inf)]
    cases += [(3, row, v) for row in range(3) for v in (0.0, -0.0, -0.5, np.inf, np.nan)]
    for arg, index, value in cases:
        bad = [a.copy() for a in inputs]
        bad[arg][index] = value
        before = [a.copy() for a in bad]
        with pytest.raises(ValueError) as info:
            ctp_update(*bad)
        assert type(info.value) is ValueError and str(info.value) == message, (arg, index, value)
        for got, want in zip(bad, before):
            np.testing.assert_array_equal(got, want)


def test_subnormal_reliability_passes_the_guard_and_overflows_s():
    x, p, r_mat, r, z = random_filter_stack(np.random.default_rng(9), 3)
    r[1] = 5e-324  # positive and finite, so the guard lets it through; R / r is inf
    with pytest.raises(FilterDegenerateError, match="not finite"):
        ctp_update(x, p, r_mat, r, z)


def test_reliability_rejects_out_of_range_inputs():
    with pytest.raises(ValueError):
        reliability(1.5, 0.5)
    with pytest.raises(ValueError):
        reliability(0.5, -0.1)


def test_update_rejects_nonpositive_reliability():
    rng = np.random.default_rng(2)
    x, p, _, r_mat = random_filter_row(rng)
    with pytest.raises(ValueError):
        ctp_update(x, p, r_mat, np.array([0.0]), np.zeros(4))


def test_q_inflation_schedule_and_reset():
    expected_mults = [1.5, 2.25, 3.375, 5.0625, 7.59375, 10.0, 10.0]
    bank = FilterBank([BBox(100, 100, 30, 30)], [(512.0, 512.0)], [SessionConfig()])
    for k, mult in enumerate(expected_mults, start=1):
        assert inflate_Q(1.5, 10.0, k) == mult
        x, p = bank.x, bank.P
        bank.step(np.array([False]), None, None)
        assert bank.streak == [k]
        np.testing.assert_array_equal(bank.P, ctp_predict(x, p, bank.F, mult * bank.Q_base)[1])
    # one valid update resets both the streak and Q
    z = np.array([[100.0, 100.0, 30.0, 30.0]])
    x, p = ctp_update(bank.x, bank.P, bank.R, np.ones(1), z)
    bank.step(np.array([True]), z, np.ones(1))
    assert bank.streak == [0]
    np.testing.assert_array_equal(bank.P, ctp_predict(x, p, bank.F, bank.Q_base)[1])


# Constant velocity: each box entry [cx, cy, w, h] moves by its rate per frame.
CV_MATRIX = np.block([[np.eye(4), np.eye(4)], [np.zeros((4, 4)), np.eye(4)]])


def test_turn_transition_at_zero_rate_is_cv():
    np.testing.assert_array_equal(turn_transition(0.0), CV_MATRIX)
    np.testing.assert_array_equal(turn_transition(1e-15), CV_MATRIX)


def test_turn_transition_preserves_speed():
    rng = np.random.default_rng(3)
    for _ in range(10):
        omega = float(rng.uniform(-0.2, 0.2))
        f = turn_transition(omega)
        x = rng.normal(size=8)
        x2 = f @ x
        assert abs(np.hypot(x2[4], x2[5]) - np.hypot(x[4], x[5])) < 1e-12


def test_transition_matrix_dispatch():
    # A constant-velocity row ignores its turn rate; a coordinated-turn row turns.
    configs = [
        SessionConfig(motion=MotionModel(MotionKind.CONSTANT_VELOCITY, turn_rate=0.5)),
        SessionConfig(motion=MotionModel(MotionKind.COORDINATED_TURN, turn_rate=0.05)),
    ]
    bank = FilterBank([BBox(100, 100, 30, 30)] * 2, [(512.0, 512.0)] * 2, configs)
    np.testing.assert_array_equal(bank.F[0], CV_MATRIX)
    np.testing.assert_array_equal(bank.F[1], turn_transition(0.05))


def test_covariance_stays_symmetric_psd_over_random_schedule():
    # Updates, inflations and bare predictions in any order; a bare
    # prediction keeps the last multiplier.
    rng = np.random.default_rng(4)
    x, p, r_mat, q_base = default_filter_row(BBox(256, 256, 30, 30))
    f = turn_transition(0.02)[None]
    streak, mult = 0, 1.0
    for _ in range(1000):
        choice = rng.random()
        if choice < 0.45:
            z = x[0, :4] + rng.normal(scale=3.0, size=4)
            x, p = ctp_update(x, p, r_mat, np.array([rng.uniform(1e-3, 1.0)]), z)
            streak, mult = 0, 1.0
        elif choice < 0.7:
            streak += 1
            mult = inflate_Q(1.5, 10.0, streak)
        x, p = ctp_predict(x, p, f, q_base, np.array([mult]))
        np.testing.assert_array_equal(p[0], p[0].T)
        assert np.linalg.eigvalsh(p[0]).min() > -1e-9


def test_lower_reliability_keeps_more_uncertainty():
    # posterior covariance is monotone in r: less reliable measurement,
    # larger remaining P (in the PSD order)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x, p, _, r_mat = random_filter_row(rng)
        z = rng.normal(scale=20.0, size=4)
        p_low = ctp_update(x, p, r_mat, np.array([0.05]), z)[1][0]
        p_high = ctp_update(x, p, r_mat, np.array([1.0]), z)[1][0]
        assert np.linalg.eigvalsh(p_low - p_high).min() > -1e-12


def test_update_with_exact_observation_moves_nothing():
    rng = np.random.default_rng(6)
    x, p, _, r_mat = random_filter_row(rng)
    z = x[0, :4].copy()  # innovation is exactly zero
    got_x, _ = ctp_update(x, p, r_mat, np.array([0.7]), z)
    np.testing.assert_allclose(got_x, x, atol=1e-12)


def test_degenerate_innovation_covariance_raises():
    x = box2state(BBox(10, 10, 5, 5))[None]
    with pytest.raises(FilterDegenerateError):
        ctp_update(x, np.zeros((1, 8, 8)), np.zeros((1, 4, 4)), np.ones(1), np.array([10.0, 10.0, 5.0, 5.0]))


def random_filter_stack(rng, rows: int):
    """x, P, R, r and z of ``rows`` random filters, each a (rows, ...) stack."""
    filters = [random_filter_row(rng) for _ in range(rows)]
    x, p, _, r_mat = (np.concatenate(parts) for parts in zip(*filters))
    return x, p, r_mat, rng.uniform(1e-3, 1.0, size=rows), rng.normal(scale=50.0, size=(rows, 4))


@pytest.mark.parametrize("rows", [1, 3, 9])
def test_update_is_bit_identical_to_the_numpy_linalg_formula(rows):
    kernels = np.linalg._umath_linalg
    assert kernels.cholesky_lo.signature == "(m,m)->(m,m)", "numpy moved np.linalg.cholesky's kernel"
    assert kernels.solve.signature == "(m,m),(m,n)->(m,n)", "numpy moved np.linalg.solve's kernel"
    # ctp_update reads only chol[:, 0, 0]: a row the kernel cannot factor,
    # wherever its pivot fails, comes back NaN in every entry.
    s_mat = np.stack([np.eye(4), np.diag([1.0, -50.0, 1.0, 1.0]), np.diag([1.0, 1.0, 1.0, -1.0])])
    with np.errstate(invalid="ignore"):
        factor = kernels.cholesky_lo(s_mat, signature="d->d")
    assert not np.isnan(factor[0]).any() and np.isnan(factor[1:]).all()
    rng = np.random.default_rng(rows)
    for _ in range(20):
        x, p, r_mat, r, z = random_filter_stack(rng, rows)
        chol = np.linalg.cholesky(p[:, :4, :4] + r_mat / r[:, None, None])
        innovation = (z - x[:, :4])[:, :, None]
        white = np.linalg.solve(chol, np.concatenate((p[:, :4, :], innovation), axis=2))
        step = white[:, :, :8].transpose(0, 2, 1) @ white
        p_want = p - step[:, :, :8]
        got_x, got_p = ctp_update(x, p, r_mat, r, z)
        np.testing.assert_array_equal(got_x, x + step[:, :, 8])
        np.testing.assert_array_equal(got_p, (p_want + p_want.transpose(0, 2, 1)) / 2.0)


def test_the_numpy_internals_behind_the_quiet_region_and_the_clip():
    # ctp enters numpy's error state through its context variable (one set
    # and one reset per filter stage) and clips through the ufunc np.clip wraps.
    from numpy._core import umath

    version = f"numpy {np.__version__}"
    assert hasattr(umath, "_extobj_contextvar"), f"{version} moved np.errstate's context variable"
    assert isinstance(umath.clip, np.ufunc), f"{version} moved the ufunc behind np.clip"
    a = np.array([[-0.0, 0.0, np.nan, -5.0, np.inf, 0.5, -np.inf]])
    lo, hi = np.array([0.0, -0.0, 0.0, 0.0, 0.0, 1.0, 1.0]), np.full(7, 512.0)
    want = np.minimum(np.maximum(a, lo), hi).tobytes()
    assert umath.clip(a, lo, hi).tobytes() == np.clip(a, lo, hi).tobytes() == want, f"{version} clips differently"
    var = umath._extobj_contextvar
    with np.errstate(all="ignore"):
        quiet = var.get()
    with np.errstate(all="raise", under="warn"):
        mine = np.geterr()
        token = var.set(quiet)
        try:
            np.array([1e308]) * 10.0  # silenced
        finally:
            var.reset(token)
        assert np.geterr() == mine, f"{version} did not restore the caller's error state"
        with pytest.raises(FloatingPointError):
            np.array([1e308]) * 10.0
        x, p, _, r_mat = random_filter_row(np.random.default_rng(3))
        for r in (np.array([5e-324]), np.array([0.5])):  # R / r overflows inside the quiet region, or nothing does
            try:
                ctp_update(x, p, r_mat, r, x[0, :4] + 1.0)
            except FilterDegenerateError:
                assert r[0] == 5e-324
            assert np.geterr() == mine, f"{version}: ctp_update left the caller's error state changed"
        q = np.eye(8)[None]
        for scale in (None, np.array([np.inf])):
            with contextlib.suppress(FilterDegenerateError):
                ctp_predict(x, p, turn_transition(0.0)[None], q, scale)
            assert np.geterr() == mine, f"{version}: ctp_predict left the caller's error state changed"


def test_the_numpy_normal_draw_is_a_scaled_standard_normal_draw():
    # sim.render_frame draws an RGB frame as one standard_normal block scaled
    # in place (*= sigma, += mu) and relies on that giving the bits, and the
    # generator state, of Generator.normal(mu, sigma, n).
    version = f"numpy {np.__version__}"
    for seed in (0, 1, 7, 2024):
        for mu, sigma in ((140.0, 12.0), (95.0, 12.0), (55.0, 12.0), (0.0, 1.0), (-3.5, 0.1), (1e6, 1e-3)):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want = a.normal(mu, sigma, 1000)
            got = b.standard_normal(1000)
            got *= sigma
            got += mu
            assert got.tobytes() == want.tobytes(), f"{version}: normal({mu}, {sigma}) is not mu + sigma * z"
            assert a.bit_generator.state == b.bit_generator.state, f"{version}: the two draws use the stream differently"


@pytest.mark.parametrize("k, n", [(3, 8), (56, 16), (16, 1)])
def test_stacked_gemv_is_the_per_frame_gemv_bit_for_bit(k, n):
    # state_switch.classify_stack runs each switch MLP layer (3 -> 8,
    # 56 -> 16, 16 -> 1) as a (T, 1, k) @ W.T stack and relies on numpy
    # making, per frame, the kernel call that one (k,) @ W.T makes.
    rng = np.random.default_rng(k)
    weights = 0.1 * rng.standard_normal((n, k))
    stack = rng.uniform(0.0, 1.0, size=(50, k))
    per_frame = np.stack([x @ weights.T for x in stack])
    stacked = (stack[:, None, :] @ weights.T)[:, 0, :]
    assert per_frame.tobytes() == stacked.tobytes(), (
        f"numpy {np.__version__} no longer runs a (T, 1, k) @ (k, n) stack as per-frame gemv calls"
    )


def _indefinite_middle_row(x, p, r_mat, r, z):
    p[1, :4, :4] = np.diag([1.0, -50.0, 1.0, 1.0])  # S has a negative eigenvalue


def _overflowing_noise(x, p, r_mat, r, z):
    r_mat[2] = 1e308 * np.eye(4)
    r[2] = 1e-3  # R / r overflows


def _nan_observation(x, p, r_mat, r, z):
    z[0, 3] = np.nan


@pytest.mark.parametrize(
    "corrupt, error, message",
    [
        (_indefinite_middle_row, FilterDegenerateError, "not positive definite"),
        (_overflowing_noise, FilterDegenerateError, "not finite"),
        (_nan_observation, ValueError, "observation z must be finite"),
    ],
)
def test_update_failure_raises_its_own_error_and_leaves_inputs_alone(corrupt, error, message):
    inputs = random_filter_stack(np.random.default_rng(7), 3)
    corrupt(*inputs)
    before = [a.copy() for a in inputs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would escape as an error
        with pytest.raises(error, match=message) as info:
            ctp_update(*inputs)
    assert type(info.value) is error  # no LinAlgError, which is a ValueError too
    for got, want in zip(inputs, before):
        np.testing.assert_array_equal(got, want)


def test_box_state_roundtrip_and_validation():
    b = BBox(12.5, 400.0, 31.0, 17.0)
    np.testing.assert_array_equal(box2state(b)[:4], b.as_array())
    np.testing.assert_array_equal(box2state(b)[4:], np.zeros(4))
    assert BBox(*box2state(b)[:4]) == b
    with pytest.raises(ValueError):
        box2state(BBox(0, 0, -1.0, 5.0))


def test_clip_box_limits():
    bank = FilterBank([BBox(10.0, 10.0, 5.0, 5.0)], [(512.0, 256.0)], [SessionConfig()])
    np.testing.assert_array_equal(bank.box_min, [[0.0, 0.0, 1.0, 1.0]])
    np.testing.assert_array_equal(bank.box_max, [[512.0, 256.0, 512.0, 256.0]])
    with pytest.raises(ValueError):
        FilterBank([BBox(10.0, 10.0, 5.0, 5.0)], [(0.0, 512.0)], [SessionConfig()])
    # A state past every bound, reported by a session and by a bank row
    # that coast it through one invalid frame at zero velocity.
    outside = np.array([-20.0, 600.0, 0.2, 1000.0, 0.0, 0.0, 0.0, 0.0])
    clipped = BBox(0.0, 256.0, 1.0, 256.0)
    sess = TrackerSession(BBox(10.0, 10.0, 5.0, 5.0), 512.0, 256.0)
    sess.bank.x = outside[None].copy()
    invalid = TriStateDecision(TriState.INVALID, 0.5, 1.0)
    assert sess.step(FrameInput(observed=None, s=0.0, decision=invalid)) == clipped
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
    x0 = sess.bank.x[0].copy()
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
    # epsilon = 1 is the plain filter's setting (the kf/ekf presets).
    b0 = BBox(50.0, 50.0, 20.0, 20.0)
    z = BBox(58.0, 47.0, 21.0, 19.0)
    decision = TriStateDecision(TriState.NIR, 0.9, 0.0)
    plain = TrackerSession(b0, 512, 512, SessionConfig(epsilon=1.0))
    plain.step(FrameInput(observed=z, s=0.2, decision=decision))
    manual = TrackerSession(b0, 512, 512, SessionConfig())
    manual.step(FrameInput(observed=z, s=1.0, decision=TriStateDecision(TriState.RGB, 0.0, 0.0)))
    # s=1, m=0 gives r=1 exactly, so both sessions did the same update
    np.testing.assert_array_equal(plain.bank.x, manual.bank.x)
    np.testing.assert_array_equal(plain.bank.P, manual.bank.P)


def test_epsilon_one_and_theta_one_are_exactly_one():
    # The kf/ekf presets rest on these: r and the Q multiplier are 1.0 bit for bit.
    assert reliability(1.0, 0.0, 1.0) == 1.0 and reliability(1.0, 1.0, 1.0) == 1.0
    rng = np.random.default_rng(19)
    grid = np.linspace(0.0, 1.0, 101)
    for s, m in ((grid[:, None], grid[None, :]), (rng.random(10_000), rng.random(10_000))):
        assert (reliability(s, m, 1.0) == 1.0).all()
    for cap in (1.0, 10.0, 1e308):
        for k in (*range(12), 1751, 10**6):
            assert inflate_Q(1.0, cap, k) == 1.0, (cap, k)


def test_session_valid_frame_requires_observation():
    sess = TrackerSession(BBox(10, 10, 5, 5), 512, 512)
    with pytest.raises(ValueError):
        sess.step(
            FrameInput(observed=None, s=0.5, decision=TriStateDecision(TriState.RGB, 0.1, 0.0))
        )


def test_session_inflation_can_be_disabled():
    # theta = 1 is the plain filter's setting (the kf/ekf presets).
    cfg = SessionConfig(theta=1.0)
    sess = TrackerSession(BBox(100, 100, 30, 30), 512, 512, cfg)
    bank = sess.bank
    x, p = bank.x, bank.P
    invalid = TriStateDecision(TriState.INVALID, 0.5, 1.0)
    for _ in range(5):
        sess.step(FrameInput(observed=None, s=0.0, decision=invalid))
        x, p = ctp_predict(x, p, bank.F, bank.Q_base)  # Q stays at Q_base
    assert bank.streak == [5]
    np.testing.assert_array_equal(bank.P, p)


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
        {"epsilon": True},
        {"cap_mult": "1"},
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
    # Ints are stored as floats: an int theta**k or cap past the float range
    # would make the Q multipliers an object array.
    cfg = SessionConfig(theta=2, cap_mult=10**300)
    assert (type(cfg.theta), type(cfg.cap_mult), cfg.theta, cfg.cap_mult) == (float, float, 2.0, 1e300)


def test_motion_model_rejects_bad_values():
    for kwargs in ({"kind": "ct"}, {"turn_rate": float("nan")}, {"turn_rate": "0.1"}):
        with pytest.raises(ValueError):
            MotionModel(**kwargs)


def test_inflate_Q_is_the_plain_power_below_the_cap():
    for theta, cap in ((1.5, 10.0), (1.01, 1e6), (2.0, 1.0), (1.0, 10.0), (3.7, 1e300)):
        for k in range(0, 3000):
            plain = theta**k if k * np.log(theta) < 700.0 else float("inf")
            want = plain if plain < cap else cap
            assert inflate_Q(theta, cap, k) == want, (theta, cap, k)


@pytest.mark.parametrize("theta, streak", [(2.0, 1024), (4.0, 512), (1.5, 1751), (1e300, 2)])
def test_inflate_Q_gives_the_cap_where_the_power_overflows(theta, streak):
    # Each theta**streak is past the float range (2**1024 the first), with the cap at its top.
    assert inflate_Q(theta, sys.float_info.max, streak) == sys.float_info.max


def test_inflation_survives_a_streak_past_the_overflow_point():
    # 1.5**1751 overflows a double; the session used to die on that frame.
    cfg = SessionConfig(motion=MotionModel(MotionKind.COORDINATED_TURN, 0.02))
    sess = TrackerSession(BBox(256.0, 256.0, 30.0, 30.0), 512.0, 512.0, cfg)
    invalid = TriStateDecision(TriState.INVALID, 0.5, 1.0)
    bank = sess.bank
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2000):
            x, p = bank.x, bank.P
            sess.step(FrameInput(observed=None, s=0.0, decision=invalid))
        assert bank.streak == [2000]
        np.testing.assert_array_equal(bank.P, ctp_predict(x, p, bank.F, cfg.cap_mult * bank.Q_base)[1])
        _, p_floor = ctp_update(bank.x, bank.P, bank.R, np.array([cfg.epsilon]), bank.x[:, :4] + 1.0)
        for p in (bank.P[0], p_floor[0]):  # r at its floor
            assert np.isfinite(p).all()
            np.testing.assert_array_equal(p, p.T)
            assert np.linalg.eigvalsh(p).min() > -1e-9


def test_step_rejects_non_finite_input_before_changing_state():
    sess = TrackerSession(BBox(100.0, 100.0, 30.0, 30.0), 512.0, 512.0)
    rgb = TriStateDecision(TriState.RGB, 0.1, 0.0)
    sess.step(FrameInput(observed=BBox(103.0, 99.0, 30.0, 31.0), s=0.9, decision=rgb))
    bank = sess.bank
    x, p, streak = bank.x.copy(), bank.P.copy(), list(bank.streak)
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
        np.testing.assert_array_equal(bank.x, x)
        np.testing.assert_array_equal(bank.P, p)
        assert bank.streak == streak
    x, p, r_mat, _ = default_filter_row(BBox(10, 10, 5, 5))
    for z, r in (([10.0, nan, 5.0, 5.0], 1.0), ([10.0, 10.0, 5.0, 5.0], float("inf")),
                 ([10.0, 10.0, 5.0, 5.0], nan)):
        with pytest.raises(ValueError):
            ctp_update(x, p, r_mat, np.array([r]), np.array(z))


def test_step_rejects_a_negative_observed_size_before_changing_state():
    # io rejects such a box in a sequence file and box2state as b0; the bank's step rejects it here.
    rgb = TriStateDecision(TriState.RGB, 0.1, 0.0)
    for observed in (BBox(100.0, 100.0, -30.0, -30.0), BBox(100.0, 100.0, 30.0, -1e-9)):
        sess = TrackerSession(BBox(100.0, 100.0, 30.0, 30.0), 512.0, 512.0)
        x, p = sess.bank.x.copy(), sess.bank.P.copy()
        with pytest.raises(ValueError, match="step: observed box has a negative size, w="):
            sess.step(FrameInput(observed=observed, s=0.9, decision=rgb))
        np.testing.assert_array_equal(sess.bank.x, x)
        np.testing.assert_array_equal(sess.bank.P, p)
        assert sess.bank.streak == [0]


def _bank_configs():
    turn = MotionModel(MotionKind.COORDINATED_TURN, -0.03)
    return [
        SessionConfig(epsilon=1.0, theta=1.0),
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
    saw_mixed = saw_all_invalid = False
    for t in range(60):
        valid = rng.random(len(configs)) < 0.7
        if t == 5:
            valid = np.array([True, False, True])  # one step with both kinds, always
        if t == 6:
            valid = np.zeros(len(configs), dtype=bool)  # and one with none valid
        saw_mixed |= bool(valid.any() and not valid.all())
        saw_all_invalid |= not valid.any()
        z = np.array([bank.x[b, :4] + rng.normal(scale=3.0, size=4) for b in range(len(configs))])
        z[:, 2:] = np.abs(z[:, 2:])  # the bank rejects a negative observed size
        z[~valid] = np.nan  # never read on invalid rows
        s, m = rng.uniform(0.0, 1.0, (2, len(configs)))
        r = reliability(s, m, bank.epsilon)
        boxes = bank.step(valid, z, r)
        for b, single in enumerate(singles):
            one = single.step(valid[b:b + 1], z[b:b + 1], r[b:b + 1])
            np.testing.assert_allclose(boxes[b], one[0], rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(bank.P[b], single.P[0], rtol=0.0, atol=1e-9)
            assert bank.streak[b] == single.streak[0]
    assert saw_mixed and saw_all_invalid


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
            z[2:] = np.abs(z[2:])  # the bank rejects a negative observed size
            s, m = float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.0, 1.0))
            decision = TriStateDecision(TriState.RGB, m, 0.0)
            box = sess.step(FrameInput(observed=BBox(*z), s=s, decision=decision))
            want = bank.step(np.array([True]), z[None], reliability(s, m, bank.epsilon))
        assert (box.cx, box.cy, box.w, box.h) == tuple(want[0].tolist())
        np.testing.assert_array_equal(sess.bank.x, bank.x)
        np.testing.assert_array_equal(sess.bank.P, bank.P)


def test_a_coasting_size_stays_at_least_1():
    # Eight invalid frames on a shrinking box: the h rate would take h from ~8 to -6.0.
    bank = FilterBank([BBox(120.0, 300.0, 32.0, 24.0)], [(512.0, 512.0)], [_bank_configs()[1]])
    rng = np.random.default_rng(9)
    zeroed = False
    for t in range(40):
        if 10 <= t < 18:
            bank.step(np.array([False]), None, None)
        else:
            z = bank.x[0, :4] + rng.normal(scale=2.0, size=4)
            z[2:] = np.abs(z[2:])
            s, m = rng.uniform(0.3, 1.0), rng.uniform(0.0, 1.0)
            bank.step(np.array([True]), z[None], reliability(s, m, bank.epsilon))
        assert (bank.x[0, 2:4] >= 1.0).all(), t
        zeroed |= bool((bank.x[0, 6:] == 0.0).any())
    assert zeroed  # the rule fired, and did not only stand by


def test_bank_reads_the_observed_size_of_valid_rows_only():
    cfgs = _bank_configs()[:2]
    b0 = [BBox(100.0, 100.0, 30.0, 30.0)] * 2
    z = np.array([[100.0, 100.0, 30.0, 30.0], [100.0, 100.0, -40.0, -40.0]])
    bank = FilterBank(b0, [(512.0, 512.0)] * 2, cfgs)
    bank.step(np.array([True, False]), z, np.ones(2))
    x, p = bank.x.copy(), bank.P.copy()
    with pytest.raises(ValueError, match="negative size"):
        bank.step(np.array([True, True]), z, np.ones(2))
    np.testing.assert_array_equal(bank.x, x)
    np.testing.assert_array_equal(bank.P, p)
    assert bank.streak == [0, 1]


def test_session_steps_through_the_single_filter_functions(monkeypatch):
    # Code that wraps ctp_update, inflate_Q and ctp_predict (a profiler, a
    # tracer) sees every bank step, a session's included: the bank looks
    # them up per call, and calls inflate_Q once per invalid row.
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

    calls.update(dict.fromkeys(calls, 0))
    configs = _bank_configs()
    assert configs[0].theta == 1.0  # a row that never inflates is still asked
    bank = FilterBank([BBox(100.0, 100.0, 30.0, 30.0)] * 3, [(512.0, 512.0)] * 3, configs)
    z = np.array([[100.0, 100.0, 30.0, 30.0]] * 3)
    for valid in ([True, True, True], [False, True, False], [False, False, False], [True, False, True]):
        bank.step(np.array(valid), z, np.ones(3))
    assert calls == {"ctp_update": 3, "inflate_Q": 0 + 2 + 3 + 1, "ctp_predict": 4}


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
    assert bank.streak == [0, 0, 0]
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
        assert bank.streak == [0, 0]


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
    just_past = int(sys.float_info.max) + 1  # an int past the float range that float() rounds into it
    for size in ((0.0, 512.0), (np.inf, 512.0), (512.0, np.nan), (10**310, 512), (just_past, 512), (512.0,),
                 (True, 512.0), ("512", 512.0), 512.0):
        with pytest.raises(ValueError, match="not finite, positive"):
            FilterBank([BBox(1, 1, 1, 1)], [size], [cfg])
    with pytest.raises(ValueError, match="not finite, positive"):
        TrackerSession(BBox(1, 1, 1, 1), np.inf, 512.0)


def test_covariance_stays_symmetric_psd_at_the_reliability_floor_and_past_the_cap():
    # r is either at its floor or uniform above it, and blackouts run up to
    # 3x the 6 frames the default multiplier takes to reach its cap.
    rng = np.random.default_rng(14)
    cfg = SessionConfig(motion=MotionModel(MotionKind.COORDINATED_TURN, 0.02))
    eps = cfg.epsilon
    bank = FilterBank([BBox(256, 256, 30, 30)], [(512.0, 512.0)], [cfg])
    longest = floor_updates = 0
    for _ in range(150):
        steps = ["valid"] * int(rng.integers(1, 4)) + ["invalid"] * int(rng.integers(0, 19))
        for kind in steps:
            if kind == "valid":
                r = eps if rng.random() < 0.5 else float(rng.uniform(eps, 1.0))
                floor_updates += r == eps
                z = bank.x[:, :4] + rng.normal(scale=3.0, size=4)
                bank.step(np.array([True]), z, np.array([r]))
            else:
                bank.step(np.array([False]), None, None)
                longest = max(longest, bank.streak[0])
            p = bank.P[0]
            assert np.isfinite(p).all()
            np.testing.assert_array_equal(p, p.T)
            assert np.linalg.eigvalsh(p).min() > -1e-9
    assert longest > 6 and floor_updates > 50
