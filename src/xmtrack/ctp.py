"""Reliability-weighted trajectory filter that predicts through invalid frames.

State is an 8-vector [cx, cy, w, h, vcx, vcy, vw, vh] in pixels and
pixels/frame.  Valid frames run a Kalman correction whose observation noise
is divided by a reliability score r = max(eps, s*|2m-1|) — uncertain
observations are down-weighted — followed by a prediction.  Invalid frames
skip the correction, inflate the process noise (by default compounding 1.5x
per consecutive invalid frame, capped at 10x) and predict only.  The reported
box is the post-prediction state clipped to the frame.

Two motion models: a coordinated-turn filter with a fixed turn rate (the
extended-filter ablation) and a constant-velocity one, which is the same
filter at turn rate 0.

The math is written once, over a leading batch axis: ``ctp_update`` and
``ctp_predict`` take x (B, 8), P (B, 8, 8) and per-row R, r, z or F, Q, and
``inflate_Q`` gives one row's Q multiplier.  ``FilterBank`` holds B
independent rows, each with its own settings from a ``SessionConfig`` (F, R,
Q_base, epsilon, theta, cap_mult) and its own invalid streak, and
``FilterBank.step`` is the one step policy: correction on the rows whose
frame is valid, Q inflation on the invalid rows, prediction on all, one clip
for every box.  ``TrackerSession`` is a one-row ``FilterBank`` plus the
classifier that decides each frame.

A plain filter is this one with epsilon = 1 and theta = 1: s*|2m-1| <= 1
for s, m in [0, 1], so r is exactly 1, and the Q multiplier is exactly 1 on
every streak, which leaves Q as it is bit for bit.

The innovation covariance S = H P H^T + R/r of every corrected row is
checked by a Cholesky factorization of the (B, 4, 4) stack, which the gain
then reuses; a non-finite or non-positive-definite S, or a predicted P that
overflows, raises ``FilterDegenerateError``, and a non-finite z or r
``ValueError``, each before any row changes.  At B=1 the Python wrappers
around a kernel cost more than the kernel, so the update calls the LAPACK
kernels behind ``np.linalg.cholesky`` and ``np.linalg.solve`` directly (same
bits; the shapes and dtype they check are fixed here), and the guards read
r, z and chol[b, 0, 0] as Python floats, which NaN fails: the kernel fills
a row it cannot factor with NaN.  Each stage ignores every floating-point
flag over the arithmetic whose overflow its checks report, by one set and
one reset of numpy's error-state variable to a state built once at import
(``np.errstate`` builds it on every entry); the caller's state is back
before the stage returns or raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# The LAPACK gufuncs themselves, without numpy.linalg's per-call wrapper work.
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo  # backs np.linalg.cholesky
from numpy.linalg._umath_linalg import solve as _solve  # backs np.linalg.solve
from numpy._core.umath import _extobj_contextvar as _errstate  # what np.errstate sets
from numpy._core.umath import clip as _clip  # the ufunc behind np.clip, without its wrapper

from .state_switch import (
    DEFAULT_RHO,
    Image,
    SwitchWeights,
    TriState,
    TriStateDecision,
    classify,
)
from .core import Tensor, is_number

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

with np.errstate(all="ignore"):
    _QUIET = _errstate.get()  # every floating-point flag ignored


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


@dataclass(frozen=True)
class MotionModel:
    kind: MotionKind = MotionKind.CONSTANT_VELOCITY
    turn_rate: float = 0.0  # rad/frame, used by the coordinated-turn variant

    def __post_init__(self):
        if not isinstance(self.kind, MotionKind):
            raise ValueError(f"MotionModel: kind {self.kind!r} is not a MotionKind")
        if not is_number(self.turn_rate):
            raise ValueError(f"MotionModel: turn_rate {self.turn_rate!r} is not a finite number")


def box2state(b: BBox) -> Tensor:
    """[cx, cy, w, h] with zero initial velocities."""
    if not (b.w > 0 and b.h > 0):
        raise ValueError(f"box2state: non-positive box dimensions w={b.w}, h={b.h}")
    return np.array([b.cx, b.cy, b.w, b.h, 0.0, 0.0, 0.0, 0.0], dtype=np.float64)


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


def turn_transition(omega: float) -> Tensor:
    """Coordinated-turn transition over one frame on (cx, cy, vcx, vcy); linear on w/h.

    ``omega`` is the turn per frame in radians.  Uses 2*sin^2(omega/2) for
    the versine so small turn rates stay accurate; below 1e-12 it is the
    constant-velocity matrix, which adds each rate to its box entry.  Since
    the turn rate is a fixed parameter (not part of the state), the map is
    linear and its Jacobian is this same matrix.
    """
    f = np.eye(STATE_DIM)
    f[range(OBS_DIM), range(OBS_DIM, STATE_DIM)] = 1.0
    if abs(omega) < 1e-12:
        return f
    sin_t = np.sin(omega)
    cos_t = np.cos(omega)
    a = sin_t / omega
    b = 2.0 * np.sin(omega / 2.0) ** 2 / omega
    f[0, 4] = a
    f[0, 5] = -b
    f[1, 4] = b
    f[1, 5] = a
    f[4, 4] = cos_t
    f[4, 5] = -sin_t
    f[5, 4] = sin_t
    f[5, 5] = cos_t
    return f


def inflate_Q(theta: float, cap_mult: float, streak: int) -> float:
    """Q multiplier after ``streak`` consecutive invalid frames: min(theta**streak, cap_mult).

    The cap stops covariance blow-up on long streaks; a valid frame resets
    the streak.  theta >= 1, so a power past the float range is past the cap.
    """
    try:
        return min(theta**streak, cap_mult)
    except OverflowError:
        return cap_mult


def ctp_update(x: Tensor, P: Tensor, R: Tensor, r: Tensor, z: Tensor) -> tuple[Tensor, Tensor]:
    """Reliability-weighted Kalman correction of a stack of B filters.

    x (B, 8), P (B, 8, 8), R (B, 4, 4), r (B,), z (B, 4) or one (4,) for
    every row.  S = H P H^T + R/r is factored as L L^T; an S that is not
    finite, then a P that is not finite, then an S that is not positive
    definite raises FilterDegenerateError.  One
    triangular solve gives [A | w] = L^-1 [H P | z - H x].  The gain is
    K = P H^T S^-1 = A^T L^-1, so the one product A^T [A | w] holds both
    steps: P = (I - K H) P = P - A^T A, re-symmetrized, and x += A^T w.
    This is the only place S and K are formed.  Inputs are checked before
    anything is computed.
    """
    if not (all(0.0 < v < math.inf for v in r.tolist()) and all(map(math.isfinite, z.ravel().tolist()))):
        raise ValueError("ctp update: observation z must be finite and reliability r finite positive")
    # [H P | z - H x], (B, 4, 9): H picks the box components out of the state.
    rhs = np.empty((len(x), OBS_DIM, STATE_DIM + 1))
    rhs[:, :, :STATE_DIM] = P[:, :OBS_DIM]
    rhs[:, :, STATE_DIM] = z - x[:, :OBS_DIM]
    # An overflowing S and a failed factorization are reported by the checks
    # below, not as floating-point warnings (numpy.linalg ignores the same
    # flags): the kernel fills a row it cannot factor with NaN.
    quiet = _errstate.set(_QUIET)
    try:
        s_mat = P[:, :OBS_DIM, :OBS_DIM] + R / r[:, None, None]  # H P H^T is a slice of P
        if np.count_nonzero(np.isfinite(s_mat)) != s_mat.size:
            raise FilterDegenerateError("ctp update: innovation covariance not finite")
        if np.count_nonzero(np.isfinite(P)) != P.size:  # S's check has seen P's S block
            raise FilterDegenerateError("ctp update: state covariance not finite")
        chol = _cholesky_lo(s_mat, signature="d->d")
        # The kernel NaN-fills the whole factor of a row it cannot factor.
        if any(map(math.isnan, chol[:, 0, 0].tolist())):
            raise FilterDegenerateError("ctp update: innovation covariance not positive definite")
        white = _solve(chol, rhs, signature="dd->d")
    finally:
        _errstate.reset(quiet)
    step = white[:, :, :STATE_DIM].transpose(0, 2, 1) @ white  # A^T [A | w], (B, 8, 9)
    p_new = P - step[:, :, :STATE_DIM]
    return x + step[:, :, STATE_DIM], (p_new + p_new.transpose(0, 2, 1)) / 2.0


def ctp_predict(
    x: Tensor, P: Tensor, F: Tensor, Q: Tensor, scale: Tensor | None = None
) -> tuple[Tensor, Tensor]:
    """x = F x, P = F P F^T + scale * Q (re-symmetrized) for a stack of B filters.

    ``scale`` (B,) multiplies each row's Q; None leaves Q as it is.  A
    covariance that overflows, the scaled Q's included, raises
    FilterDegenerateError.
    """
    x_new = (F @ x[:, :, None])[:, :, 0]
    quiet = _errstate.set(_QUIET)
    try:
        if scale is not None:
            Q = scale[:, None, None] * Q
        p_new = F @ P @ F.transpose(0, 2, 1) + Q
        p_new = (p_new + p_new.transpose(0, 2, 1)) / 2.0
    finally:
        _errstate.reset(quiet)
    if np.count_nonzero(np.isfinite(p_new)) != p_new.size:
        raise FilterDegenerateError("ctp predict: state covariance not finite")
    return x_new, p_new


def reject_negative_size(z: Tensor) -> None:
    """ValueError for the first of the observed boxes z (n, 4) whose w or h is below 0."""
    for _, _, w, h in z.tolist():
        if w < 0.0 or h < 0.0:
            raise ValueError(f"step: observed box has a negative size, w={w}, h={h}")


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

    def __post_init__(self):
        # Checked on every construction, dataclasses.replace included, so a
        # bad value fails here and not as a broadcast error mid-sequence.
        for name, n in (("p0_diag", STATE_DIM), ("q_diag", STATE_DIM), ("r_diag", OBS_DIM)):
            diag = tuple(getattr(self, name))
            if len(diag) != n or not all(is_number(v) and v > 0 for v in diag):
                raise ValueError(f"SessionConfig: {name} needs {n} finite positive entries")
            setattr(self, name, tuple(map(float, diag)))  # a big int would make an object array
        for name in ("theta", "cap_mult", "epsilon", "rho"):
            if not is_number(getattr(self, name)):
                raise ValueError(f"SessionConfig: {name} must be a finite number")
            # An int theta**k or cap_mult past the float range would make an object array.
            setattr(self, name, float(getattr(self, name)))
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

    Row b has its own state (x[b], P[b]), settings from ``configs[b]`` and
    invalid streak, streak[b].  This is where a config becomes matrices: R,
    Q_base and P's start are its diagonals, and F is
    ``turn_transition(turn_rate)`` for a coordinated-turn row and
    ``turn_transition(0.0)`` for a constant-velocity one.  A reported
    [cx, cy, w, h] is clipped to [0, 0, 1, 1] below and [W, H, W, H] above,
    for a ``frame_size`` of (W, H): center in the frame, size in [1, frame
    dim].  Rows share nothing but the call: a row's boxes are the ones a B=1
    bank would give it.  ``reliability(s, m, bank.epsilon)`` gives every
    row's r.
    """

    def __init__(self, b0: list[BBox], frame_size: list[tuple[float, float]], configs: list[SessionConfig]):
        if not len(b0) == len(frame_size) == len(configs) > 0:
            raise ValueError("FilterBank: need one initial box, frame size and config per row")
        if not all(np.shape(pair) == (2,) and all(is_number(v) and v > 0 for v in pair) for pair in frame_size):
            raise ValueError(f"FilterBank: frame sizes {frame_size} are not finite, positive (width, height) pairs")
        size = np.array(frame_size, dtype=np.float64)
        self.x = np.stack([box2state(b) for b in b0])
        self.P = np.stack([np.diag(c.p0_diag) for c in configs])
        rates = [c.motion.turn_rate if c.motion.kind == MotionKind.COORDINATED_TURN else 0.0 for c in configs]
        self.F = np.stack([turn_transition(rate) for rate in rates])
        self.R = np.stack([np.diag(c.r_diag) for c in configs])
        self.Q_base = np.stack([np.diag(c.q_diag) for c in configs])
        self.epsilon = np.array([c.epsilon for c in configs])
        # Python floats: inflate_Q takes exact scalar powers of them.
        self.theta = [c.theta for c in configs]
        self.cap_mult = [c.cap_mult for c in configs]
        self.streak = [0] * len(configs)
        self.box_min = np.tile([0.0, 0.0, 1.0, 1.0], (len(configs), 1))
        self.box_max = np.tile(size, 2)

    def step(self, valid: Tensor, z: Tensor | None, r: Tensor | None) -> Tensor:
        """One frame for every row; returns the reported boxes (B, 4).

        Valid rows are corrected with z (B, 4) and r (B,), which are read on
        those rows only (None when no row is valid), and reset their streak;
        an observed w or h below 0 raises ValueError.  The others count one
        more invalid frame and, on a step with any invalid row, every row
        predicts with Q_base scaled by ``inflate_Q`` of its streak (1 on a
        valid row).  Before the prediction, a row's w or h rate that would
        take that size below 1 is zeroed, SORT's rule (Bewley et al. 2016),
        so a coasting box does not shrink through 0.  The bank changes only
        if the whole step succeeds: bad input raises ValueError, a
        degenerate covariance FilterDegenerateError.
        """
        flags = valid.tolist()
        n_valid = flags.count(True)
        every = n_valid == len(flags)
        if n_valid:
            if not every:
                rows = np.flatnonzero(valid)
                z = z[rows]
            reject_negative_size(z)
        scale = None
        if every:
            x, p = ctp_update(self.x, self.P, self.R, r, z)
            streak = [0] * n_valid
        else:
            x, p = self.x, self.P
            if n_valid:  # a blackout on every row corrects and copies nothing
                x, p = x.copy(), p.copy()
                x[rows], p[rows] = ctp_update(x[rows], p[rows], self.R[rows], r[rows], z)
            streak = [0 if v else k + 1 for v, k in zip(flags, self.streak)]
            settings = zip(self.theta, self.cap_mult, streak)
            scale = np.array([inflate_Q(t, c, k) if k else 1.0 for t, c, k in settings])
        if any(w + vw < 1.0 or h + vh < 1.0 for _, _, w, h, _, _, vw, vh in x.tolist()):
            x = x.copy()
            x[:, OBS_DIM + 2 :][x[:, 2:OBS_DIM] + x[:, OBS_DIM + 2 :] < 1.0] = 0.0
        self.x, self.P = ctp_predict(x, p, self.F, self.Q_base, scale)
        self.streak = streak
        return _clip(self.x[:, :OBS_DIM], self.box_min, self.box_max)


_ONE_VALID, _ONE_INVALID = np.array([True]), np.array([False])


class TrackerSession:
    """Single-target filter session over one frame stream.

    It decides each frame (or takes the given decision) and steps a one-row
    ``FilterBank``, ``bank``, with it.
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
        self.switch_weights = switch_weights
        self.bank = FilterBank([b0], [(frame_width, frame_height)], [self.config])
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
        """One frame; ``bank`` changes only if the whole step succeeds."""
        decision = self._decide(frame)
        self.last_decision = decision
        if decision.state == TriState.INVALID:
            box = self.bank.step(_ONE_INVALID, None, None)
        else:
            o = frame.observed
            if o is None:
                raise ValueError("step: valid frame without an observation")
            r = reliability(frame.s, decision.m, self.bank.epsilon)
            box = self.bank.step(_ONE_VALID, np.array([[o.cx, o.cy, o.w, o.h]], dtype=np.float64), r)
        return BBox(*box[0].tolist())
