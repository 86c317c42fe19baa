"""Reliability-weighted trajectory filter that predicts through invalid frames.

State is an 8-vector [cx, cy, w, h, vcx, vcy, vw, vh] in pixels and
pixels/frame.  Valid frames run a Kalman correction whose observation noise
is divided by a reliability score r = max(eps, s*|2m-1|) — uncertain
observations are down-weighted — followed by a prediction.  Invalid frames
skip the correction, inflate the process noise (compounding 1.5x per
consecutive invalid frame, capped at 10x) and predict only.  The reported
box is the post-prediction state clipped to the frame.

Two motion models: a constant-velocity linear filter and a coordinated-turn
variant with a fixed turn rate (the extended-filter ablation).  With turn
rate 0 the two coincide.

The math is written once, over a leading batch axis: ``batch_update`` and
``batch_predict`` take x (B, 8), P (B, 8, 8) and per-row R, r, z or F, Q.
``FilterBank`` holds B independent rows, each with its own settings from a
``SessionConfig`` (F, R, Q_base, epsilon, theta, cap_mult, use_reliability,
inflate_on_invalid) and its own counters (Q multiplier, invalid streak),
and steps them in lockstep: correction on the rows whose frame is valid,
prediction on all, one clip for every box.  ``ctp_update``, ``ctp_predict``
and ``inflate_Q`` run the same functions on one ``FilterState`` (B=1), and
``TrackerSession`` steps through them, so a session's boxes are the ones a
one-row bank gives.

The innovation covariance S = H P H^T + R/r of every corrected row is
checked by a Cholesky factorization of the (B, 4, 4) stack, which the gain
then reuses; a non-finite or non-positive-definite S, or a predicted P that
overflows, raises ``FilterDegenerateError``.  A non-finite z or r raises
``ValueError``.  Both are raised before any row changes.  The Q multiplier
min(theta^k, cap_mult) is computed without forming theta^k once it is past
the cap, so it never overflows on a long blackout.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from numbers import Real

import numpy as np

from .state_switch import (
    DEFAULT_RHO,
    Image,
    SwitchWeights,
    TriState,
    TriStateDecision,
    classify,
)
from .core import Tensor

STATE_DIM = 8
OBS_DIM = 4

DEFAULT_EPSILON = 1e-3
DEFAULT_THETA = 1.5
DEFAULT_CAP_MULT = 10.0

# Initial covariance: loose on velocity (unknown at t0), moderate on position.
DEFAULT_P0_DIAG = (10.0, 10.0, 10.0, 10.0, 100.0, 100.0, 100.0, 100.0)
# Process noise: small enough that the velocity estimate stays tight
# (prediction-only windows drift by ~20x the velocity error), large enough
# to follow mild maneuvers.  See the drift tests for the measured margins.
DEFAULT_Q_DIAG = (0.1, 0.1, 0.1, 0.1, 0.002, 0.002, 0.002, 0.002)
# Matched to the simulator's default 2 px observation noise.
DEFAULT_R_DIAG = (4.0, 4.0, 4.0, 4.0)


class FilterDegenerateError(RuntimeError):
    """Innovation covariance not positive definite, or a covariance not finite."""


@dataclass(frozen=True)
class BBox:
    """Center-parameterized box in pixels."""

    cx: float
    cy: float
    w: float
    h: float

    def as_array(self) -> Tensor:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)


class MotionKind(str, Enum):
    CONSTANT_VELOCITY = "cv"
    COORDINATED_TURN = "ct"


def _is_number(v) -> bool:
    """A real, non-bool number finite as a float (an int past the float range is not)."""
    return isinstance(v, Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


@dataclass(frozen=True)
class MotionModel:
    kind: MotionKind = MotionKind.CONSTANT_VELOCITY
    turn_rate: float = 0.0  # rad/frame, used by the coordinated-turn variant

    def __post_init__(self):
        if not isinstance(self.kind, MotionKind):
            raise ValueError(f"MotionModel: kind {self.kind!r} is not a MotionKind")
        if not _is_number(self.turn_rate):
            raise ValueError(f"MotionModel: turn_rate {self.turn_rate!r} is not a finite number")


@dataclass
class FilterState:
    x: Tensor  # (8,)
    P: Tensor  # (8, 8)
    Q: Tensor  # (8, 8) current (possibly inflated) process noise
    R: Tensor  # (4, 4) base observation noise
    Q_base: Tensor  # (8, 8) reset target after an invalid streak
    invalid_streak: int = 0


def box2state(b: BBox) -> Tensor:
    """[cx, cy, w, h] with zero initial velocities."""
    if not (b.w > 0 and b.h > 0):
        raise ValueError(f"box2state: non-positive box dimensions w={b.w}, h={b.h}")
    return np.array([b.cx, b.cy, b.w, b.h, 0.0, 0.0, 0.0, 0.0], dtype=np.float64)


def box_limits(width: float, height: float) -> tuple[Tensor, Tensor]:
    """Bounds on a reported [cx, cy, w, h]: center in the frame, size in [1, frame dim]."""
    if not (width > 0 and height > 0):
        raise ValueError(f"box_limits: non-positive frame {width}x{height}")
    return np.array([0.0, 0.0, 1.0, 1.0]), np.array([width, height, width, height], dtype=np.float64)


def _in_unit_interval(v) -> bool:
    """Every entry of v lies in [0, 1] (NaN does not); plain floats skip numpy."""
    if isinstance(v, (float, int)):
        return 0.0 <= v <= 1.0
    v = np.asarray(v)
    return bool(((0.0 <= v) & (v <= 1.0)).all())


def reliability(s, m, epsilon=DEFAULT_EPSILON):
    """r = max(epsilon, s * |2m - 1|), elementwise over arrays of s and m.

    Confidence s sets the ceiling; |2m - 1| collapses to 0 when the modality
    is ambiguous (m = 0.5), flooring r at epsilon so R/r never blows up.
    A scalar s and m give a scalar r.
    """
    if not _in_unit_interval(s):
        raise ValueError(f"reliability: confidence s={s} outside [0, 1]")
    if not _in_unit_interval(m):
        raise ValueError(f"reliability: modality weight m={m} outside [0, 1]")
    return np.maximum(epsilon, s * abs(2.0 * m - 1.0))


def cv_transition(dt: float = 1.0) -> Tensor:
    f = np.eye(STATE_DIM)
    for i in range(4):
        f[i, i + 4] = dt
    return f


def turn_transition(omega: float, dt: float = 1.0) -> Tensor:
    """Coordinated-turn transition on (cx, cy, vcx, vcy); linear on w/h.

    Uses 2*sin^2(theta/2) for the versine so small turn rates stay accurate;
    omega -> 0 reduces exactly to the constant-velocity matrix.  Since the
    turn rate is a fixed parameter (not part of the state), the map is linear
    and its Jacobian is this same matrix.
    """
    f = cv_transition(dt)
    if abs(omega) < 1e-12:
        return f
    theta = omega * dt
    sin_t = np.sin(theta)
    cos_t = np.cos(theta)
    a = sin_t / omega
    b = 2.0 * np.sin(theta / 2.0) ** 2 / omega
    f[0, 4] = a
    f[0, 5] = -b
    f[1, 4] = b
    f[1, 5] = a
    f[4, 4] = cos_t
    f[4, 5] = -sin_t
    f[5, 4] = sin_t
    f[5, 5] = cos_t
    return f


@functools.lru_cache(maxsize=64)
def transition_matrix(model: MotionModel, dt: float = 1.0) -> Tensor:
    """F of ``model``, built once per (model, dt) and returned read-only.

    ``MotionModel`` is frozen and hashable, so every step of a session reuses
    one matrix instead of building it again.
    """
    if model.kind == MotionKind.COORDINATED_TURN:
        f = turn_transition(model.turn_rate, dt)
    else:
        f = cv_transition(dt)
    f.flags.writeable = False
    return f


def make_filter_state(
    b0: BBox,
    p0_diag=DEFAULT_P0_DIAG,
    q_diag=DEFAULT_Q_DIAG,
    r_diag=DEFAULT_R_DIAG,
) -> FilterState:
    q = np.diag(np.asarray(q_diag, dtype=np.float64))
    return FilterState(
        x=box2state(b0),
        P=np.diag(np.asarray(p0_diag, dtype=np.float64)),
        Q=q.copy(),
        R=np.diag(np.asarray(r_diag, dtype=np.float64)),
        Q_base=q.copy(),
        invalid_streak=0,
    )


# Rounding of streak * log(theta) is ~1e-13 even at the float range's edge.
_LOG_CAP_MARGIN = 1e-9


def capped_multiplier(theta: float, cap_mult: float, streak: int) -> float:
    """min(theta**streak, cap_mult) for theta >= 1, without forming a power past the cap.

    theta**k only grows with k, so once streak * log(theta) clears
    log(cap_mult) by a margin far above its rounding the cap holds, and the
    power (which overflows from 1.5**1751 on) is never taken.  Below the cap
    the multiplier is theta**streak itself, bit for bit.
    """
    if streak * math.log(theta) > math.log(cap_mult) + _LOG_CAP_MARGIN:
        return cap_mult
    return min(theta**streak, cap_mult)


def batch_update(x: Tensor, P: Tensor, R: Tensor, r: Tensor, z: Tensor) -> tuple[Tensor, Tensor]:
    """Reliability-weighted Kalman correction of a stack of B filters.

    x (B, 8), P (B, 8, 8), R (B, 4, 4), r (B,), z (B, 4) or one (4,) for
    every row.  S = H P H^T + R/r is factored as L L^T; a stack that is not
    finite or not positive definite raises FilterDegenerateError.  One
    triangular solve gives [A | w] = L^-1 [H P | z - H x].  The gain is
    K = P H^T S^-1 = A^T L^-1, so the one product A^T [A | w] holds both
    steps: P = (I - K H) P = P - A^T A, re-symmetrized, and x += A^T w.
    This is the only place S and K are formed.  Inputs are checked before
    anything is computed.
    """
    if not (np.isfinite(z).all() and ((0.0 < r) & (r < np.inf)).all()):
        raise ValueError("ctp update: observation z must be finite and reliability r finite positive")
    # H picks the box components out of the state, so H P H^T is a slice of P.
    with np.errstate(over="ignore"):  # an overflow is reported as degenerate below
        s_mat = P[:, :OBS_DIM, :OBS_DIM] + R / r[:, None, None]
    if not np.isfinite(s_mat).all():
        raise FilterDegenerateError("ctp update: innovation covariance not finite")
    try:
        chol = np.linalg.cholesky(s_mat)
    except np.linalg.LinAlgError as exc:
        raise FilterDegenerateError("ctp update: innovation covariance not positive definite") from exc
    innovation = (z - x[:, :OBS_DIM])[:, :, None]
    white = np.linalg.solve(chol, np.concatenate((P[:, :OBS_DIM, :], innovation), axis=2))
    step = white[:, :, :STATE_DIM].transpose(0, 2, 1) @ white  # A^T [A | w], (B, 8, 9)
    p_new = P - step[:, :, :STATE_DIM]
    return x + step[:, :, STATE_DIM], (p_new + p_new.transpose(0, 2, 1)) / 2.0


def batch_predict(x: Tensor, P: Tensor, F: Tensor, Q: Tensor) -> tuple[Tensor, Tensor]:
    """x = F x, P = F P F^T + Q (re-symmetrized) for a stack of B filters.

    A covariance that overflows raises FilterDegenerateError.
    """
    x_new = (F @ x[:, :, None])[:, :, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        p_new = F @ P @ F.transpose(0, 2, 1) + Q
        p_new = (p_new + p_new.transpose(0, 2, 1)) / 2.0
    if not np.isfinite(p_new).all():
        raise FilterDegenerateError("ctp predict: state covariance not finite")
    return x_new, p_new


def ctp_update(fs: FilterState, z: Tensor, r: float) -> FilterState:
    """``batch_update`` of one filter.

    Updates only happen on valid frames, so the process noise drops back to
    its base value and the invalid streak resets here.  z is the (4,)
    observation, r a float.
    """
    x, p = batch_update(fs.x[None], fs.P[None], fs.R[None], np.array([r]), z)
    # Q is never written in place (inflate_Q builds a new array), so the
    # reset can share Q_base.
    return FilterState(x=x[0], P=p[0], Q=fs.Q_base, R=fs.R, Q_base=fs.Q_base, invalid_streak=0)


def ctp_predict(fs: FilterState, model: MotionModel, dt: float = 1.0) -> FilterState:
    """``batch_predict`` of one filter under ``model``."""
    x, p = batch_predict(fs.x[None], fs.P[None], transition_matrix(model, dt)[None], fs.Q[None])
    return FilterState(x=x[0], P=p[0], Q=fs.Q, R=fs.R, Q_base=fs.Q_base, invalid_streak=fs.invalid_streak)


def inflate_Q(
    fs: FilterState,
    theta: float = DEFAULT_THETA,
    cap_mult: float = DEFAULT_CAP_MULT,
) -> FilterState:
    """Compound the process noise for one more consecutive invalid frame.

    After k invalid frames in a row, Q = min(theta^k, cap_mult) * Q_base.
    The cap stops covariance blow-up on long streaks; ctp_update resets.
    """
    streak = fs.invalid_streak + 1
    q = capped_multiplier(theta, cap_mult, streak) * fs.Q_base
    return FilterState(x=fs.x, P=fs.P, Q=q, R=fs.R, Q_base=fs.Q_base, invalid_streak=streak)


# ---------------------------------------------------------------------------
# session driver (Algorithm semantics: classify, correct/predict, report)
# ---------------------------------------------------------------------------


@dataclass
class SessionConfig:
    p0_diag: tuple = DEFAULT_P0_DIAG
    q_diag: tuple = DEFAULT_Q_DIAG
    r_diag: tuple = DEFAULT_R_DIAG
    theta: float = DEFAULT_THETA
    cap_mult: float = DEFAULT_CAP_MULT
    epsilon: float = DEFAULT_EPSILON
    rho: float = DEFAULT_RHO
    motion: MotionModel = field(default_factory=MotionModel)
    use_reliability: bool = True  # False -> r pinned to 1 (plain filter)
    inflate_on_invalid: bool = True

    def __post_init__(self):
        # Checked on every construction, dataclasses.replace included, so a
        # bad value fails here and not as a broadcast error mid-sequence.
        for name, n in (("p0_diag", STATE_DIM), ("q_diag", STATE_DIM), ("r_diag", OBS_DIM)):
            diag = tuple(getattr(self, name))
            if len(diag) != n or not all(_is_number(v) and v > 0 for v in diag):
                raise ValueError(f"SessionConfig: {name} needs {n} finite positive entries")
            setattr(self, name, tuple(map(float, diag)))  # a big int would make an object array
        for name in ("theta", "cap_mult", "epsilon", "rho"):
            if not _is_number(getattr(self, name)):
                raise ValueError(f"SessionConfig: {name} must be a finite number")
        for ok, rule in (
            (self.theta >= 1.0, "theta >= 1"),
            (self.cap_mult >= 1.0, "cap_mult >= 1"),
            (0.0 < self.epsilon <= 1.0, "0 < epsilon <= 1"),
            (0.0 <= self.rho <= 1.0, "0 <= rho <= 1"),
        ):
            if not ok:
                raise ValueError(f"SessionConfig: needs {rule}")
        if not isinstance(self.motion, MotionModel):
            raise ValueError(f"SessionConfig: motion {self.motion!r} is not a MotionModel")
        for name in ("use_reliability", "inflate_on_invalid"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"SessionConfig: {name} must be true or false")


@dataclass
class FrameInput:
    """One frame as seen by the session.

    Either ``decision`` is precomputed or ``image`` is given for the session
    to classify itself.
    """

    observed: BBox | None
    s: float
    image: Image | None = None
    decision: TriStateDecision | None = None


class FilterBank:
    """B independent filters stepped in lockstep, one row each.

    Row b has its own state (x[b], P[b]), settings (F, R, Q_base, epsilon,
    theta, cap_mult, use_reliability, inflate_on_invalid, box limits) from
    ``configs[b]`` and counters (q_mult[b], streak[b]).  Rows share nothing
    but the call: a row's boxes are the ones a B=1 bank would give it.
    """

    def __init__(self, b0: list[BBox], frame_size: list[tuple[float, float]], configs: list[SessionConfig]):
        if not len(b0) == len(frame_size) == len(configs) > 0:
            raise ValueError("FilterBank: need one initial box, frame size and config per row")
        limits = [box_limits(width, height) for width, height in frame_size]
        self.x = np.stack([box2state(b) for b in b0])
        self.P = np.stack([np.diag(c.p0_diag) for c in configs])
        self.F = np.stack([transition_matrix(c.motion) for c in configs])
        self.R = np.stack([np.diag(c.r_diag) for c in configs])
        self.Q_base = np.stack([np.diag(c.q_diag) for c in configs])
        self.epsilon = np.array([c.epsilon for c in configs])
        # Python floats: capped_multiplier takes exact scalar powers of them.
        self.theta = [c.theta for c in configs]
        self.cap_mult = [c.cap_mult for c in configs]
        self.use_reliability = np.array([c.use_reliability for c in configs])
        self.inflate_on_invalid = np.array([c.inflate_on_invalid for c in configs])
        self.q_mult = np.ones(len(configs))
        self.streak = np.zeros(len(configs), dtype=np.int64)
        self.box_min = np.stack([lo for lo, _ in limits])
        self.box_max = np.stack([hi for _, hi in limits])

    def reliability(self, s: Tensor, m: Tensor) -> Tensor:
        """Per-row r for s and m of shape (..., B); 1 on rows without reliability.

        s and m are checked on every row.
        """
        return np.where(self.use_reliability, reliability(s, m, self.epsilon), 1.0)

    def step(self, valid: Tensor, z: Tensor, r: Tensor) -> Tensor:
        """One frame for every row; returns the reported boxes (B, 4).

        Valid rows are corrected with z (B, 4) and r (B,), which are read on
        those rows only; the others count one more invalid frame and, where
        they inflate, compound their Q multiplier.  Every row then predicts.
        The bank changes only if the whole step succeeds: bad input raises
        ValueError, a degenerate covariance FilterDegenerateError.
        """
        x, p = self.x, self.P
        if valid.all():
            x, p = batch_update(x, p, self.R, r, z)
            streak = np.zeros_like(self.streak)
            q_mult = np.ones_like(self.q_mult)
            q = self.Q_base
        else:
            rows = np.flatnonzero(valid)
            if rows.size:
                x, p = x.copy(), p.copy()
                x[rows], p[rows] = batch_update(x[rows], p[rows], self.R[rows], r[rows], z[rows])
            streak = np.where(valid, 0, self.streak + 1)
            q_mult = np.where(valid, 1.0, self.q_mult)
            for b in np.flatnonzero(self.inflate_on_invalid & ~valid).tolist():
                q_mult[b] = capped_multiplier(self.theta[b], self.cap_mult[b], int(streak[b]))
            with np.errstate(over="ignore"):  # batch_predict reports the overflow
                q = q_mult[:, None, None] * self.Q_base
        self.x, self.P = batch_predict(x, p, self.F, q)
        self.streak, self.q_mult = streak, q_mult
        return np.clip(self.x[:, :OBS_DIM], self.box_min, self.box_max)


class TrackerSession:
    """Single-target filter session over one frame stream.

    It steps one ``FilterState`` through ``ctp_update``, ``inflate_Q`` and
    ``ctp_predict``, the B=1 calls of the functions a ``FilterBank`` row runs,
    so its boxes are the ones a one-row bank gives.
    """

    def __init__(
        self,
        b0: BBox,
        frame_width: float,
        frame_height: float,
        config: SessionConfig | None = None,
        switch_weights: SwitchWeights | None = None,
    ):
        self.config = config or SessionConfig()
        self.box_limits = box_limits(frame_width, frame_height)
        self.switch_weights = switch_weights
        self.fs = make_filter_state(
            b0, self.config.p0_diag, self.config.q_diag, self.config.r_diag
        )
        self.last_decision: TriStateDecision | None = None

    def _decide(self, frame: FrameInput) -> TriStateDecision:
        if frame.decision is not None:
            return frame.decision
        if frame.image is None or self.switch_weights is None:
            raise ValueError(
                "step: need either a precomputed decision or an image plus switch weights"
            )
        return classify(frame.image, self.switch_weights, self.config.rho)

    def step(self, frame: FrameInput) -> BBox:
        """One frame; ``fs`` changes only if the whole step succeeds."""
        cfg = self.config
        decision = self._decide(frame)
        self.last_decision = decision
        fs = self.fs
        if decision.state == TriState.INVALID:
            if cfg.inflate_on_invalid:
                fs = inflate_Q(fs, cfg.theta, cfg.cap_mult)
            else:
                fs = replace(fs, invalid_streak=fs.invalid_streak + 1)
        else:
            if frame.observed is None:
                raise ValueError("step: valid frame without an observation")
            r = reliability(frame.s, decision.m, cfg.epsilon)  # checks s and m either way
            fs = ctp_update(fs, frame.observed.as_array(), r if cfg.use_reliability else 1.0)
        self.fs = ctp_predict(fs, cfg.motion)
        return self.report_box()

    def report_box(self) -> BBox:
        lo, hi = self.box_limits
        cx, cy, w, h = np.minimum(np.maximum(self.fs.x[:OBS_DIM], lo), hi).tolist()
        return BBox(cx=cx, cy=cy, w=w, h=h)
