"""Synthetic cross-modal sequence generator and end-to-end tracking harness.

A Scenario scripts the ground-truth motion (straight line or fixed-rate
turn), a modality schedule (RGB/NIR segments), over-exposure windows and an
observation-noise model.  ``generate`` renders 64x64 synthetic frames whose
channel statistics carry the modality signal (color frames have distinct
per-channel means, single-band frames are channel-collapsed, invalid frames
are almost entirely white) and emits noisy stub-tracker observations with a
confidence score.  ``Scenario.frame_masks`` answers every frame's band,
validity and nearness to a band switch at once, as three bool masks that
``generate`` renders and observes from and ``run`` tags from (its one-frame
reads ``scheduled_modality`` and ``near_switch`` are kept for the benchmark).

A ``Sequence`` keeps its T frames as columns: the ``(T, H, W, 3)`` uint8
stack ``frames`` (None if ``generate`` streamed it to a sink in chunks),
``(T, 4)`` ``gt`` and ``observed`` boxes and the ``(T,)`` confidence ``s``.
``run`` returns a ``TrackRun`` of columns too, ``run_filters``' boxes and
``seq.gt``.  ``Sequence.records`` and ``TrackRun.pred``/``gt``, transitional
per-frame views for callers that read one frame at a time, are built on
first access; ``generate``, ``io`` and ``run`` never build them.  ``io``
rejects a non-finite column when it saves a sequence.

``run`` replays a generated sequence through the pipeline — classify,
observation, motion filter — under one of four motion presets, each a
``SessionConfig`` built by ``preset_config``:

* ``off``  raw observations; box frozen during invalid windows
* ``kf``   constant-velocity filter with epsilon = 1 (r = 1, fixed
  observation noise) and theta = 1 (no Q inflation)
* ``ekf``  the same with the coordinated-turn model (scenario turn rate)
* ``ctp``  coordinated-turn + reliability-weighted noise + Q inflation
  (the ctp module's default epsilon and theta)

``run`` and the ablation suite replay whole sequences.  ``classify_sequence``
decides a whole frame stack at once and the suite each chunk as it renders
(``state_switch.classify_stack``), with the bits a frame-by-frame ``classify``
gives; ``frozen_boxes`` is the ``off`` track, and ``run_filters`` steps
every filtered track as a row of one ``FilterBank``.  The suite scores its
tracks as arrays with ``metrics.hit_masks``.  ``TrackerSession``, a one-row
``FilterBank`` plus the classifier, is the live per-frame API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy._core.umath import clip as _clip  # the ufunc behind np.clip, without its wrapper

from .core import is_int, is_number
from .ctp import (
    BBox,
    FilterBank,
    MotionKind,
    MotionModel,
    SessionConfig,
    reject_negative_size,
    reliability,
    turn_transition,
)
from .metrics import TrackRun, cle_array, hit_masks
from .state_switch import (
    DEFAULT_RHO,
    FRAME_CHANNELS,
    Image,
    SwitchWeights,
    TriState,
    TriStateDecision,
    classify_stack,
    separator_switch_weights,
)

# Rendering constants.  Color frames get distinct per-channel means; the
# single-band frames replicate one luminance field across all channels, so a
# channel-difference statistic separates the two by construction.  Pixels are
# clipped below the white level so only invalid frames trip the detector.
RGB_CHANNEL_MEANS = (140.0, 95.0, 55.0)
_RGB_MEANS = np.array(RGB_CHANNEL_MEANS)[:, None, None]
_RGB_MEANS.flags.writeable = False
NIR_MEAN = 120.0
PIXEL_NOISE = 12.0
PIXEL_MAX = 245
INVALID_WHITE_FRACTION = 0.94
TARGET_BOOST = 40.0

MODALITIES = ("rgb", "nir")
SUITE_SEGMENT = 25  # frames per band segment of an ablation-suite scenario
# Far beyond any frame and far inside the float range: a scenario whose frame,
# path and observation noise stay below it renders and observes finite boxes.
MAX_COORD = 1e9
# Largest rendered image, 4096 x 4096 pixels.
MAX_IMAGE_PIXELS = 1 << 24
# Largest frame stack (frames x height x width x channels uint8), 1 GiB.
MAX_STACK_BYTES = 1 << 30
FRAME_CHUNK_BYTES = 1 << 20  # a streamed frame stack moves in chunks of this many bytes, or of one frame


def _check_windows(windows, frames, who):
    prev_end = None
    for start, end, *_ in sorted(windows):
        if not (0 <= start < end <= frames):
            raise ValueError(f"{who}: window [{start}, {end}) outside [0, {frames})")
        if prev_end is not None and start < prev_end:
            raise ValueError(f"{who}: overlapping windows at {start}")
        prev_end = end


@dataclass
class Scenario:
    """Deterministic script for one synthetic sequence."""

    name: str
    frames: int
    frame_width: int = 512
    frame_height: int = 512
    image_width: int = 64
    image_height: int = 64
    initial_box: tuple = (256.0, 256.0, 30.0, 30.0)  # (cx, cy, w, h)
    velocity: tuple = (4.0, 0.0)  # px/frame
    turn_rate: float = 0.0  # rad/frame; 0 = straight line
    modality_schedule: list = field(default_factory=list)  # (start, end, "rgb"|"nir")
    invalid_windows: list = field(default_factory=list)  # (start, end), half-open
    sigma: float = 2.0  # observation noise, px
    switch_radius: int = 2  # frames around a modality switch with damped confidence
    switch_noise_boost: float = 1.0  # observation noise multiplier near switches
    seed: int = 0

    def __post_init__(self):
        # Checked on every construction, dataclasses.replace included, so a
        # bad field fails here and not mid-generate.
        if not isinstance(self.name, str):
            raise ValueError("Scenario: name must be a string")
        for name in ("frames", "frame_width", "frame_height", "image_width", "image_height",
                     "switch_radius", "seed"):
            low = 0 if name in ("switch_radius", "seed") else 1
            if not (is_int(getattr(self, name)) and getattr(self, name) >= low):
                raise ValueError(f"Scenario: {name} must be an integer >= {low}")
        for name, n in (("initial_box", 4), ("velocity", 2)):
            values = tuple(getattr(self, name)) if np.iterable(getattr(self, name)) else ()
            if len(values) != n or not all(is_number(v) for v in values):
                raise ValueError(f"Scenario: {name} needs {n} finite numbers")
            setattr(self, name, values)
        for name in ("turn_rate", "sigma", "switch_noise_boost"):
            if not is_number(getattr(self, name)):
                raise ValueError(f"Scenario: {name} must be a finite number")
        cx, cy, w, h = self.initial_box
        # min(): a frame count past MAX_COORD fails the path rule whenever the
        # target moves, and would overflow the float product.
        path = max(abs(cx), abs(cy), w, h) + math.hypot(*self.velocity) * min(self.frames, MAX_COORD)
        for ok, rule in (
            (w > 0 and h > 0, "a positive initial_box width and height"),
            (max(self.frame_width, self.frame_height) <= MAX_COORD, f"frame sizes <= {MAX_COORD:g} px"),
            (self.image_width * self.image_height <= MAX_IMAGE_PIXELS, f"<= {MAX_IMAGE_PIXELS} image pixels"),
            (self.sigma >= 0, "sigma >= 0"),
            (self.switch_noise_boost >= 1.0, "switch_noise_boost >= 1"),
            (
                path < MAX_COORD and self.sigma * self.switch_noise_boost < MAX_COORD,
                f"the path and its noise within {MAX_COORD:g} px",
            ),
            (
                self.frames * self.image_height * self.image_width * FRAME_CHANNELS <= MAX_STACK_BYTES,
                f"a frame stack of <= {MAX_STACK_BYTES} bytes",
            ),
        ):
            if not ok:
                raise ValueError(f"Scenario: needs {rule}")
        for name, shape in (("modality_schedule", "[start, end, band]"), ("invalid_windows", "[start, end]")):
            windows = getattr(self, name)
            for window in windows if isinstance(windows, (list, tuple)) else [windows]:
                if not (isinstance(window, (list, tuple)) and len(window) == shape.count(",") + 1
                        and all(is_int(v) for v in window[:2])):
                    raise ValueError(f"Scenario: {name} window {window!r} is not {shape} with integer bounds")
            setattr(self, name, [(int(w[0]), int(w[1]), *map(str, w[2:])) for w in windows])
        for _, _, mod in self.modality_schedule:
            if mod not in MODALITIES:
                raise ValueError(f"Scenario: unknown modality {mod!r}")
        _check_windows(self.modality_schedule, self.frames, "Scenario schedule")
        _check_windows(self.invalid_windows, self.frames, "Scenario invalid windows")

    def chunk_frames(self) -> int:
        return max(1, FRAME_CHUNK_BYTES // (self.image_height * self.image_width * FRAME_CHANNELS))

    def frame_masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(nir, invalid, near_switch)``: three ``(frames,)`` bool masks.

        Gaps in the schedule read as rgb.  A frame is near a switch within
        ``switch_radius`` of a frame t >= 1 whose band differs from frame t - 1's.
        """
        nir = np.zeros(self.frames, dtype=bool)
        for start, end, mod in self.modality_schedule:
            nir[start:end] = mod == "nir"
        invalid = np.zeros(self.frames, dtype=bool)
        for start, end in self.invalid_windows:
            invalid[start:end] = True
        near_switch = np.zeros(self.frames, dtype=bool)
        for sw in (np.flatnonzero(nir[1:] != nir[:-1]) + 1).tolist():  # ints: radius may pass int64
            near_switch[max(0, sw - self.switch_radius) : sw + self.switch_radius + 1] = True
        return nir, invalid, near_switch

    def scheduled_modality(self, t: int) -> str:
        return MODALITIES[self._frame_mask(0, t)]

    def near_switch(self, t: int) -> bool:
        return self._frame_mask(2, t)

    def _frame_mask(self, which: int, t: int) -> bool:
        if not 0 <= t < self.frames:  # a negative t would wrap
            raise IndexError(f"Scenario: frame {t} outside [0, {self.frames})")
        return bool(self.frame_masks()[which][t])

    def gt_path(self) -> np.ndarray:
        """Ground-truth boxes ``(frames, 4)``: the same discrete turn model the filter uses."""
        f = turn_transition(self.turn_rate)
        x = np.array([*self.initial_box, *self.velocity, 0.0, 0.0], dtype=np.float64)
        path = np.empty((self.frames, 4))
        for t in range(self.frames):
            path[t] = x[:4]
            x = f @ x
        return path


@dataclass
class FrameRecord:
    """One frame's pixels, ground truth, stub observation and its confidence."""

    image: Image
    gt: BBox
    observed: BBox
    s: float


@dataclass
class Sequence:
    """A scenario and its columns over T frames.

    ``frames`` is the ``(T, H, W, 3)`` uint8 stack, ``gt`` and ``observed``
    are ``(T, 4)`` float64 boxes ``(cx, cy, w, h)`` and ``s`` is the
    ``(T,)`` confidence; ``frames`` is None if it was streamed or left on disk.
    """

    scenario: Scenario
    frames: np.ndarray | None
    gt: np.ndarray
    observed: np.ndarray
    s: np.ndarray

    @cached_property
    def records(self) -> list[FrameRecord]:
        """One ``FrameRecord`` per frame, built from the columns on first access.

        Each record's ``image.pixels`` is a view of its frame in ``frames``.
        """
        _, ih, iw, channels = self.frames.shape
        return [
            FrameRecord(Image(iw, ih, channels, pixels), BBox(*gt), BBox(*observed), s)
            for pixels, gt, observed, s in zip(
                self.frames, self.gt.tolist(), self.observed.tolist(), self.s.tolist()
            )
        ]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _box_to_image_rect(box, sc: Scenario) -> tuple[int, int, int, int] | None:
    cx, cy, w, h = box
    sx = sc.image_width / sc.frame_width
    sy = sc.image_height / sc.frame_height
    x0 = int(math.floor((cx - w / 2) * sx))
    x1 = int(math.ceil((cx + w / 2) * sx))
    y0 = int(math.floor((cy - h / 2) * sy))
    y1 = int(math.ceil((cy + h / 2) * sy))
    x0, x1 = max(0, x0), min(sc.image_width, x1)
    y0, y1 = max(0, y0), min(sc.image_height, y1)
    if x0 >= x1 or y0 >= y1:
        return None
    return x0, x1, y0, y1


def render_frame(sc: Scenario, nir: bool, invalid: bool, gt, rng: np.random.Generator, out: np.ndarray):
    """Render a NIR or RGB frame, or an invalid one, into ``out``, an ``(ih, iw, 3)`` uint8 view.

    ``gt`` is the target's box ``(cx, cy, w, h)``.
    """
    iw, ih = sc.image_width, sc.image_height
    if invalid:
        # Over-exposed: white except a fixed fraction of dark survivors.
        n_dark = int(round((1.0 - INVALID_WHITE_FRACTION) * iw * ih))
        rows, cols = np.divmod(rng.choice(iw * ih, size=n_dark, replace=False), iw)
        out.fill(255)
        out[rows, cols] = 80
        return

    # Clipped to [0, PIXEL_MAX], the rounded values cast to uint8 exactly.
    rect = _box_to_image_rect(gt, sc)
    if nir:
        # One luminance field replicated across channels (channel-collapsed).
        band = rng.normal(NIR_MEAN, PIXEL_NOISE, (ih, iw))
        if rect:
            x0, x1, y0, y1 = rect
            band[y0:y1, x0:x1] += TARGET_BOOST
        _clip(band, 0, PIXEL_MAX, out=band)
        # Cast once to a uint8 plane, then write it to each channel through
        # ``out``'s own strides, so any view works.
        plane = np.rint(band, out=np.empty(band.shape, dtype=np.uint8), casting="unsafe")
        for c in range(out.shape[2]):
            out[:, :, c] = plane
    else:
        # One draw holds the values, in order, of three per-channel
        # ``normal(mu, PIXEL_NOISE, (ih, iw))`` calls: each is mu + sigma * z.
        chans = rng.standard_normal((3, ih, iw))
        chans *= PIXEL_NOISE
        chans += _RGB_MEANS
        if rect:
            x0, x1, y0, y1 = rect
            chans[0, y0:y1, x0:x1] += TARGET_BOOST  # target pops in the red channel
        _clip(chans, 0, PIXEL_MAX, out=chans)
        np.rint(chans, out=out.transpose(2, 0, 1), casting="unsafe")  # (3, ih, iw) view of out


# ---------------------------------------------------------------------------
# stub appearance tracker
# ---------------------------------------------------------------------------

DIMS_NOISE_SCALE = 0.5  # w/h observation noise relative to center noise


def stub_tracker(
    gt: np.ndarray,
    z: np.ndarray,
    sigma: np.ndarray,
    near_switch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy observations ``(N, 4)`` of the ground truth ``gt`` plus confidences ``(N,)``.

    Row t observes ``gt[t] + z[t] * sigma[t]`` from its four standard-normal
    draws ``z[t]``, with half that noise on w and h and both floored at 1 px.
    s = clamp(1 - CLE/20, 0, 1): confidence degrades linearly with the
    center error and bottoms out at 0 beyond 20 px; switching uncertainty
    halves it on the rows ``near_switch`` marks.  Each row keeps the
    operation order, and so the bits, of the scalar tracker in
    ``tests/stub_oracle.py``.
    """
    noise = z * sigma[:, None]
    noise[:, 2:] *= DIMS_NOISE_SCALE
    obs = gt + noise
    np.maximum(obs[:, 2:], 1.0, out=obs[:, 2:])
    s = np.clip(1.0 - cle_array(obs, gt) / 20.0, 0.0, 1.0)
    s[near_switch] *= 0.5
    return obs, s


def _invalid_observation(sc: Scenario, rng: np.random.Generator) -> tuple[float, float, float, float]:
    # Maximally uninformative: uniform over the frame.  Filters are expected
    # to ignore it; the 'off' baseline freezes instead of consuming it.  A
    # frame narrower than 20 px gets 5 px boxes.  One draw, scaled as
    # ``rng.uniform`` scales, low + (high - low) * u: four scalar draws' bits.
    w, h = sc.frame_width, sc.frame_height
    u = rng.random(4).tolist()
    return w * u[0], h * u[1], 5 + (max(5, w / 4) - 5) * u[2], 5 + (max(5, h / 4) - 5) * u[3]


def generate(sc: Scenario, sink=None) -> Sequence:
    """Render the whole scripted sequence.  Deterministic given the seed.

    One RNG stream, frame by frame: each frame renders straight into one
    preallocated uint8 buffer, then a valid frame draws its four stub-tracker
    normals (none when sigma is 0) and an invalid one its uniform box.  One
    ``stub_tracker`` call then observes every valid frame from its draws.
    That buffer is ``frames``, or given a ``sink``, ``sc.chunk_frames()`` frames it gets once filled.
    """
    rng = np.random.default_rng(sc.seed)
    gt = sc.gt_path()
    nir, invalid, near_switch = sc.frame_masks()
    k = sc.frames if sink is None else min(sc.frames, sc.chunk_frames())
    frames = np.empty((k, sc.image_height, sc.image_width, FRAME_CHANNELS), dtype=np.uint8)
    z = np.zeros((sc.frames, 4))
    uninformative = []
    for t, (box, n, inv) in enumerate(zip(gt.tolist(), nir.tolist(), invalid.tolist())):
        render_frame(sc, n, inv, box, rng, frames[t % k])
        if sink is not None and (t % k == k - 1 or t == sc.frames - 1):
            sink(frames[: t % k + 1])
        if inv:
            uninformative.append(_invalid_observation(sc, rng))
        elif sc.sigma > 0:
            z[t] = rng.normal(0.0, 1.0, 4)
    sigma = np.where(near_switch, sc.sigma * sc.switch_noise_boost, sc.sigma)
    observed, s = stub_tracker(gt, z, sigma, near_switch)
    if uninformative:
        observed[invalid] = uninformative
        s[invalid] = 0.0
    return Sequence(scenario=sc, frames=frames if sink is None else None, gt=gt, observed=observed, s=s)


# ---------------------------------------------------------------------------
# end-to-end harness
# ---------------------------------------------------------------------------

MOTION_PRESETS = ("off", "kf", "ekf", "ctp")


def _check_preset(motion: str):
    if motion not in MOTION_PRESETS:
        raise ValueError(f"motion preset {motion!r} not one of {MOTION_PRESETS}")


def preset_config(motion: str, turn_rate: float = 0.0) -> SessionConfig:
    """The filter config of a motion preset, on the ctp module's defaults.

    Every preset carries ``turn_rate``, so a config file that sets
    ``"motion": "ct"`` on kf turns at that rate.  Every preset but ctp sets
    epsilon = 1 and theta = 1, which pin r and the Q multiplier to 1; a
    config file can set them again.  ``off`` builds no filter and reads
    only rho.
    """
    _check_preset(motion)
    turns = motion in ("ekf", "ctp")
    kind = MotionKind.COORDINATED_TURN if turns else MotionKind.CONSTANT_VELOCITY
    plain = {} if motion == "ctp" else {"epsilon": 1.0, "theta": 1.0}
    return SessionConfig(motion=MotionModel(kind, turn_rate=turn_rate), **plain)


@dataclass
class HarnessConfig:
    motion: str = "ctp"
    session: SessionConfig | None = None  # None: preset_config(motion, scenario turn rate)

    def __post_init__(self):
        _check_preset(self.motion)


def classify_sequence(
    seq: Sequence,
    weights: SwitchWeights | None = None,
    rho: float = DEFAULT_RHO,
) -> list[TriStateDecision]:
    """Tri-state decision per frame (weights default to the built-in separator).

    ``classify_stack`` decides the whole ``(T, H, W, 3)`` frame stack at
    once, with the bits ``classify`` gives each frame.
    """
    return classify_stack(seq.frames, weights or separator_switch_weights(), rho)


def run(
    seq: Sequence,
    config: HarnessConfig | None = None,
    decisions: list[TriStateDecision] | None = None,
) -> TrackRun:
    """Track one generated sequence end to end.

    ``decisions`` may be given, e.g. from ``classify_sequence`` for a caller
    that also reads them; otherwise each frame is classified with the
    built-in separator weights.
    ``off`` reports ``frozen_boxes``; every other preset is one row of
    ``run_filters``.
    """
    config = config or HarnessConfig()
    sc = seq.scenario
    session_cfg = config.session or preset_config(config.motion, sc.turn_rate)
    if decisions is None:
        decisions = classify_sequence(seq, rho=session_cfg.rho)
    inputs = filter_inputs(seq, decisions)
    if config.motion == "off":
        boxes = frozen_boxes(inputs)
    else:
        boxes = run_filters([(inputs, session_cfg)])[0]
    tags = [
        ["nir" if nir else "rgb"] + ["invalid-window"] * invalid + ["switch"] * near
        for nir, invalid, near in zip(*(mask.tolist() for mask in sc.frame_masks()))
    ]
    return TrackRun(pred_boxes=boxes, gt_boxes=seq.gt, tags=tags)


# ---------------------------------------------------------------------------
# ablation suites
# ---------------------------------------------------------------------------


def _suite_schedule(frames: int) -> list:
    sched = []
    mod = "rgb"
    for start in range(0, frames, SUITE_SEGMENT):
        sched.append((start, min(frames, start + SUITE_SEGMENT), mod))
        mod = "nir" if mod == "rgb" else "rgb"
    return sched


def ablation_suite(base_seed: int) -> list[Scenario]:
    """Three invalid-heavy scenarios (left turn, right turn, straight).

    Noise bursts near modality switches (boosted sigma, damped confidence)
    plus two long over-exposure windows per scenario give each motion
    configuration something distinct to fail on.
    """
    frames = 150
    speed = 4.0
    turn = 0.025
    radius = speed / turn  # 160 px turning circle, centred on the frame
    common = dict(
        frames=frames,
        sigma=2.0,
        switch_radius=2,
        switch_noise_boost=8.0,
        modality_schedule=_suite_schedule(frames),
        invalid_windows=[(55, 73), (110, 128)],
    )
    scenarios = []
    for label, rate in (("turn-left", turn), ("turn-right", -turn)):
        start_x = 256.0 - math.copysign(radius, rate)
        scenarios.append(
            Scenario(
                name=f"{label}-{base_seed}",
                initial_box=(start_x, 256.0, 34.0, 34.0),
                velocity=(0.0, -speed),
                turn_rate=rate,
                seed=base_seed * 3 + (0 if rate > 0 else 1),
                **common,
            )
        )
    diag = speed / math.sqrt(2.0)
    scenarios.append(
        Scenario(
            name=f"straight-{base_seed}",
            initial_box=(70.0, 70.0, 34.0, 34.0),
            velocity=(diag, diag),
            turn_rate=0.0,
            seed=base_seed * 3 + 2,
            **common,
        )
    )
    return scenarios


@dataclass
class FilterInputs:
    """One classified sequence reduced to what the motion presets read: no images."""

    scenario: Scenario
    valid: np.ndarray  # (T,) bool: the decision is not invalid
    observed: np.ndarray  # (T, 4) observed boxes
    s: np.ndarray  # (T,) confidence
    m: np.ndarray  # (T,) modality weight
    gt: np.ndarray  # (T, 4) ground-truth boxes


def filter_inputs(seq: Sequence, decisions: list[TriStateDecision]) -> FilterInputs:
    if len(decisions) != len(seq.s):
        raise ValueError("filter_inputs: decisions misaligned with sequence")
    return FilterInputs(
        scenario=seq.scenario,
        valid=np.array([d.state != TriState.INVALID for d in decisions]),
        observed=seq.observed,
        s=seq.s,
        m=np.array([d.m for d in decisions]),
        gt=seq.gt,
    )


def frozen_boxes(inputs: FilterInputs) -> np.ndarray:
    """The ``off`` track (T, 4): gt[0] at frame 0, then the observed box (not of
    negative size) on valid frames and the last reported box on invalid ones."""
    reject_negative_size(inputs.observed[1:][inputs.valid[1:]])
    frames = np.arange(len(inputs.valid))
    last_reported = np.maximum.accumulate(np.where(inputs.valid | (frames == 0), frames, 0))
    return np.vstack((inputs.gt[0], inputs.observed[1:]))[last_reported]


FILTER_PRESETS = MOTION_PRESETS[1:]  # every preset but off runs a filter


def run_filters(rows: list[tuple[FilterInputs, SessionConfig]]) -> np.ndarray:
    """Boxes (row, frame, 4) of every filtered track, stepped in lockstep.

    Row i of one ``FilterBank`` tracks ``rows[i]``'s sequence under its
    config: the initial box at frame 0, then one bank step per frame.  The
    sequences must have one length.
    """
    inputs = [inp for inp, _ in rows]
    bank = FilterBank(
        [BBox(*inp.gt[0].tolist()) for inp in inputs],
        [(inp.scenario.frame_width, inp.scenario.frame_height) for inp in inputs],
        [config for _, config in rows],
    )
    frames = len(inputs[0].valid)
    if any(len(inp.valid) != frames for inp in inputs):
        raise ValueError("run_filters: sequences differ in length")

    def per_row(name):  # (frames, rows, ...) from each row's array
        return np.stack([getattr(inp, name) for inp in inputs], axis=1)

    valid, observed = per_row("valid"), per_row("observed")
    r = reliability(per_row("s"), per_row("m"), bank.epsilon)
    boxes = np.empty((frames, len(rows), 4))
    boxes[0] = [inp.gt[0] for inp in inputs]
    for t in range(1, frames):
        boxes[t] = bank.step(valid[t], observed[t], r[t])
    return boxes.swapaxes(0, 1)


def _suite_inputs(sc: Scenario) -> FilterInputs:
    weights, decisions = separator_switch_weights(), []
    seq = generate(sc, lambda chunk: decisions.extend(classify_stack(chunk, weights)))
    return filter_inputs(seq, decisions)


def run_ablation_suite(base_seed: int) -> dict[str, dict[str, float]]:
    """Pooled PR/SR per motion preset over one three-scenario suite.

    Each scenario is generated, classified and reduced to ``FilterInputs``
    by ``_suite_inputs``, which classifies each chunk of frames as it
    renders: the suite holds one chunk, never a stack.  The filtered presets
    of all three scenarios then step as one nine-row bank, and each preset's
    pooled track is scored against the pooled ground truth in one array
    expression per rate.
    """
    inputs = [_suite_inputs(sc) for sc in ablation_suite(base_seed)]
    rows = [(inp, preset_config(preset, inp.scenario.turn_rate)) for inp in inputs for preset in FILTER_PRESETS]
    filtered = run_filters(rows).reshape(len(inputs), len(FILTER_PRESETS), -1, 4)
    off = np.stack([frozen_boxes(inp) for inp in inputs])
    tracks = np.stack([off, *filtered.swapaxes(0, 1)]).reshape(len(MOTION_PRESETS), -1, 4)
    gt = np.concatenate([inp.gt for inp in inputs])
    n = len(gt)
    pr_hits, sr_hits = (np.count_nonzero(hits, axis=1).tolist() for hits in hit_masks(tracks, gt))
    return {
        preset: {"PR": 100.0 * pr / n, "SR": 100.0 * sr / n}
        for preset, pr, sr in zip(MOTION_PRESETS, pr_hits, sr_hits)
    }

