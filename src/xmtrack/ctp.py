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
"""

from __future__ import annotations

import math
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
from .core import Tensor, as_tensor

STATE_DIM = 8
OBS_DIM = 4

# Observation picks the box components out of the state.
H_OBS = np.hstack([np.eye(OBS_DIM), np.zeros((OBS_DIM, OBS_DIM))])

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
    """Innovation covariance is numerically singular."""


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
    return isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)


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


def state2box(x: Tensor) -> BBox:
    x = as_tensor(x)
    return BBox(cx=float(x[0]), cy=float(x[1]), w=float(x[2]), h=float(x[3]))


def clip_box(b: BBox, width: float, height: float) -> BBox:
    """Clamp the center into the frame and the dimensions to [1, frame dim]."""
    if width <= 0 or height <= 0:
        raise ValueError(f"clip_box: non-positive frame {width}x{height}")
    return BBox(
        cx=float(np.clip(b.cx, 0.0, width)),
        cy=float(np.clip(b.cy, 0.0, height)),
        w=float(np.clip(b.w, 1.0, width)),
        h=float(np.clip(b.h, 1.0, height)),
    )


def reliability(s: float, m: float, epsilon: float = DEFAULT_EPSILON) -> float:
    """r = max(epsilon, s * |2m - 1|).

    Confidence s sets the ceiling; |2m - 1| collapses to 0 when the modality
    is ambiguous (m = 0.5), flooring r at epsilon so R/r never blows up.
    """
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"reliability: confidence s={s} outside [0, 1]")
    if not (0.0 <= m <= 1.0):
        raise ValueError(f"reliability: modality weight m={m} outside [0, 1]")
    return max(epsilon, s * abs(2.0 * m - 1.0))


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


def transition_matrix(model: MotionModel, dt: float = 1.0) -> Tensor:
    if model.kind == MotionKind.COORDINATED_TURN:
        return turn_transition(model.turn_rate, dt)
    return cv_transition(dt)


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


def ctp_update(fs: FilterState, z: Tensor, r: float) -> FilterState:
    """Reliability-weighted Kalman correction.

    S = H P H^T + R/r; K = P H^T S^-1; x += K (z - H x); P = (I - K H) P,
    re-symmetrized.  Updates only happen on valid frames, so the process
    noise drops back to its base value and the invalid streak resets here.
    """
    z = as_tensor(z).reshape(OBS_DIM)
    if r <= 0.0:
        raise ValueError(f"ctp_update: reliability r={r} must be positive")
    p = fs.P
    s_mat = H_OBS @ p @ H_OBS.T + fs.R / r
    if not np.all(np.isfinite(s_mat)) or np.linalg.cond(s_mat) > 1e14:
        raise FilterDegenerateError("ctp_update: innovation covariance singular")
    m = p @ H_OBS.T
    try:
        gain = np.linalg.solve(s_mat, m.T).T  # K = P H^T S^-1, S symmetric
    except np.linalg.LinAlgError as exc:
        raise FilterDegenerateError("ctp_update: innovation covariance singular") from exc
    x_new = fs.x + gain @ (z - H_OBS @ fs.x)
    p_new = (np.eye(STATE_DIM) - gain @ H_OBS) @ p
    p_new = (p_new + p_new.T) / 2.0
    return FilterState(
        x=x_new,
        P=p_new,
        Q=fs.Q_base.copy(),
        R=fs.R,
        Q_base=fs.Q_base,
        invalid_streak=0,
    )


def ctp_predict(fs: FilterState, model: MotionModel, dt: float = 1.0) -> FilterState:
    f = transition_matrix(model, dt)
    x_new = f @ fs.x
    p_new = f @ fs.P @ f.T + fs.Q
    p_new = (p_new + p_new.T) / 2.0
    return replace(fs, x=x_new, P=p_new)


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
    mult = min(theta**streak, cap_mult)
    return replace(fs, Q=mult * fs.Q_base, invalid_streak=streak)


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
            setattr(self, name, diag)
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

    Either ``decision`` is precomputed (the simulator does this) or ``image``
    + ``features`` are given for the session to classify itself.
    """

    observed: BBox | None
    s: float
    image: Image | None = None
    features: Tensor | None = None
    decision: TriStateDecision | None = None


class TrackerSession:
    """Single-target filter session over one frame stream."""

    def __init__(
        self,
        b0: BBox,
        frame_width: float,
        frame_height: float,
        config: SessionConfig | None = None,
        switch_weights: SwitchWeights | None = None,
    ):
        self.config = config or SessionConfig()
        self.frame_width = frame_width
        self.frame_height = frame_height
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
        features = frame.features if frame.features is not None else frame.image.features()
        return classify(frame.image, features, self.switch_weights, self.config.rho)

    def step(self, frame: FrameInput) -> BBox:
        cfg = self.config
        decision = self._decide(frame)
        self.last_decision = decision
        if decision.state == TriState.INVALID:
            if cfg.inflate_on_invalid:
                self.fs = inflate_Q(self.fs, cfg.theta, cfg.cap_mult)
            else:
                self.fs = replace(self.fs, invalid_streak=self.fs.invalid_streak + 1)
            self.fs = ctp_predict(self.fs, cfg.motion)
        else:
            if frame.observed is None:
                raise ValueError("step: valid frame without an observation")
            r = reliability(frame.s, decision.m, cfg.epsilon) if cfg.use_reliability else 1.0
            self.fs = ctp_update(self.fs, frame.observed.as_array(), r)
            self.fs = ctp_predict(self.fs, cfg.motion)
        return self.report_box()

    def report_box(self) -> BBox:
        return clip_box(state2box(self.fs.x), self.frame_width, self.frame_height)


def step(session: TrackerSession, frame: FrameInput) -> BBox:
    """Functional alias for TrackerSession.step."""
    return session.step(frame)
