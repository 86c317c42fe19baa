"""Tri-state frame classification: RGB vs NIR vs Invalid.

Two mechanisms combine:

* a two-branch feature classifier (spatial conv branch + spectral
  channel-statistics branch, fused by a small MLP into a scalar modality
  weight ``m``; NIR iff m >= 0.5), and
* a pixel-counting over-exposure detector (fraction of near-white pixels
  above a ratio threshold marks the frame Invalid).

``classify`` decides one frame, and ``classify_stack`` every frame of a
``(T, H, W, C)`` uint8 stack with the same bits.  Both take their pixel
statistics exactly.  ``pixel_statistics`` casts one frame's pixels to
float32 once for both the white count and the channel sums.  Every partial
sum is an integer below 2**24, which float32 holds exactly: a luma is at
most 255000, and the channel sums run over blocks of at most 2**16 rows
(255 * 2**16 < 2**24), added in float64.  ``stack_statistics`` never casts
the stack: its channel sums are integer column sums, then their uint64 sums.
Either way one division by 255*H*W rounds each mean.  The white count is
taken only when some pixel value of the frame reaches WHITE_LEVEL: a luma
in thousandths is at most 1000 times the largest channel, so below that no
pixel can be white and the ratio is 0.  The float (C, H, W) feature plane
is built only for weights whose plan runs the spatial branch's conv.

``spectral_branch`` and ``modality_weight`` take one frame's 1-D vectors or
(T, 1, k) stacks of them.  numpy runs a (T, 1, k) @ (k, n) product as one
gemv per frame, the same kernel call that one frame's (k,) @ (k, n) makes,
so a stack gives every frame's m bit for bit; a (T, k) @ (k, n) gemm sums
in another order and does not.

The classifier here is inference-only: weights are built in code, by
``separator_switch_weights`` or the ``SwitchWeights`` constructor; training
is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral

import numpy as np

from .core import ShapeError, Tensor, adaptive_max_pool, as_tensor, relu, scalar_sigmoid, sigmoid_pair

# The built-in weights classify 3-channel frames, the layout sim renders.
FRAME_CHANNELS = 3
# Fixed classifier hyper-parameters (unspecified upstream; pinned so tests
# are deterministic): 3x3 conv, stride 1, pad 1, out channels = in channels;
# spatial pool target 4x4; spectral hidden width 8; fusion hidden width 16.
POOL_HW = (4, 4)
SPECTRAL_HIDDEN = 8
FUSION_HIDDEN = 16

WHITE_LEVEL = 250
# A pixel is white iff its luma in thousandths reaches this (see pixel_statistics).
_WHITE_LUMA = 1000 * WHITE_LEVEL - 500
# Luma in thousandths by channel count: the BT.601 sum 299 r + 587 g + 114 b
# for a 3-channel pixel, and 1000 * p for a 1-channel pixel p.
_LUMA_WEIGHTS = {1: np.array([1000.0], np.float32), 3: np.array([299.0, 587.0, 114.0], np.float32)}
# Rows per float32 channel-sum block.  Up to 2**16 would be exact; 2**14 keeps
# the ones vector at 64 KiB, and a 128x128 frame is still one block.
_SUM_BLOCK = 1 << 14
_BLOCK_ONES = np.ones(_SUM_BLOCK, dtype=np.float32)
_BLOCK_ONES.flags.writeable = False
# Frames of at most this many rows have uint16 column sums: 255 * 257 = 2**16 - 1.
_U16_COLUMN_ROWS = 257
DEFAULT_RHO = 0.40

WEIGHT_NAMES = ("conv_w", "conv_b", "spec_w", "spec_b", "fuse1_w", "fuse1_b", "fuse2_w", "fuse2_b")


class TriState(str, Enum):
    RGB = "rgb"
    NIR = "nir"
    INVALID = "invalid"


@dataclass(frozen=True)
class TriStateDecision:
    state: TriState
    m: float
    white_ratio: float


def _is_int(v) -> bool:
    """An integer and not a bool; a plain int skips the slower ``Integral`` check."""
    return type(v) is int or (isinstance(v, Integral) and not isinstance(v, bool))


@dataclass
class Image:
    """8-bit image, pixels row-major (then channel-interleaved if 3-channel)."""

    width: int
    height: int
    channels: int
    pixels: np.ndarray

    def __post_init__(self):
        for name in ("width", "height"):
            v = getattr(self, name)
            if not (_is_int(v) and v >= 0):
                raise ShapeError(f"Image: {name} must be a non-negative integer, got {v!r}")
        if not _is_int(self.channels) or self.channels not in (1, 3):
            raise ShapeError(f"Image: channels must be 1 or 3, got {self.channels!r}")
        pixels = np.asarray(self.pixels)
        if pixels.dtype != np.uint8:
            # A plain cast would wrap 300 to 44 and -1 to 255, and turn NaN into 0.
            if pixels.dtype.kind not in "buif" or not np.all(
                (pixels >= 0) & (pixels <= 255) & (np.rint(pixels) == pixels)
            ):
                raise ValueError("Image: pixel values must be integers in [0, 255]")
            pixels = pixels.astype(np.uint8)
        self.pixels = pixels.ravel()
        want = self.width * self.height * self.channels
        if self.pixels.size != want:
            raise ShapeError(
                f"Image: {self.pixels.size} pixel values for "
                f"{self.width}x{self.height}x{self.channels} (need {want})"
            )

    def features(self) -> Tensor:
        """Pixels as a C-contiguous float64 (C, H, W) plane scaled to [0, 1].

        The channel-interleaved pixels are de-interleaved and divided by 255
        in one pass into a fresh contiguous plane, so the per-channel
        reductions and the conv's padding copy read it with unit stride.
        The values equal ``plane.astype(np.float64) / 255.0`` bit for bit.
        """
        plane = self.pixels.reshape(self.height, self.width, self.channels).transpose(2, 0, 1)
        return np.divide(plane, 255.0, out=np.empty(plane.shape, dtype=np.float64))


@dataclass(frozen=True)
class SwitchWeights:
    """Parameters of the two-branch modality classifier, planned once.

    The eight arrays are kept as read-only float64 copies, so neither the
    caller's arrays nor an in-place write can change the weights after the
    plan below is made.

    The plan skips the spatial branch when no fusion input reads it: every
    entry of ``fuse1_w``'s first C*16 columns is 0, and each conv output
    channel's worst case, sum|conv_w| + |conv_b|, is finite (with a factor 2
    for rounding).  For features in [0, 1], as ``Image.features`` gives, the
    spatial vector is then finite and >= 0, so each product 0 * f_spa equals
    0 * 0 bit for bit, sign included, and ``classify`` passes the read-only
    zero vector ``spatial_zeros`` in its place without building the feature
    plane or running the conv.
    ``fuse1_w`` is not sliced: its full dot product with the zeros gives m
    bit-identical to the full path whatever order BLAS sums in, which a
    shorter dot product does not.  ``spatial_zeros`` is None when the
    fusion reads the spatial branch.
    """

    conv_w: Tensor  # (C, C, 3, 3)
    conv_b: Tensor  # (C,)
    spec_w: Tensor  # (SPECTRAL_HIDDEN, C)
    spec_b: Tensor
    fuse1_w: Tensor  # (FUSION_HIDDEN, C*16 + SPECTRAL_HIDDEN)
    fuse1_b: Tensor
    fuse2_w: Tensor  # (1, FUSION_HIDDEN)
    fuse2_b: Tensor
    spatial_zeros: Tensor | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in WEIGHT_NAMES:
            frozen = np.array(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(frozen)):
                raise ValueError(f"SwitchWeights: {name} has a non-finite entry")
            frozen.flags.writeable = False
            object.__setattr__(self, name, frozen)
        # Every other array is compared by its whole shape, rank included.
        if self.conv_w.ndim != 4:
            raise ShapeError(f"SwitchWeights: conv_w must be (C, C, 3, 3), got shape {self.conv_w.shape}")
        c = self.conv_w.shape[0]
        n_spatial = c * POOL_HW[0] * POOL_HW[1]
        checks = [
            self.conv_w.shape == (c, c, 3, 3),
            self.conv_b.shape == (c,),
            self.spec_w.shape == (SPECTRAL_HIDDEN, c),
            self.spec_b.shape == (SPECTRAL_HIDDEN,),
            self.fuse1_w.shape == (FUSION_HIDDEN, n_spatial + SPECTRAL_HIDDEN),
            self.fuse1_b.shape == (FUSION_HIDDEN,),
            self.fuse2_w.shape == (1, FUSION_HIDDEN),
            self.fuse2_b.shape == (1,),
        ]
        if not all(checks):
            raise ShapeError("SwitchWeights: inconsistent parameter shapes")
        with np.errstate(over="ignore"):  # an overflow here only means "keep the conv"
            worst = 2.0 * (np.abs(self.conv_w).sum(axis=(1, 2, 3)) + np.abs(self.conv_b))
        zeros = None
        if not np.any(self.fuse1_w[:, :n_spatial]) and np.all(np.isfinite(worst)):
            zeros = np.zeros(n_spatial)
            zeros.flags.writeable = False
        object.__setattr__(self, "spatial_zeros", zeros)

    @property
    def channels(self) -> int:
        return self.conv_w.shape[0]


def separator_switch_weights() -> SwitchWeights:
    """Weights correct-by-construction for the synthetic sequences.

    The spectral branch measures mean(R) - mean(B), which is far from zero on
    color frames and exactly zero on channel-collapsed (single-band) frames.
    The fusion head thresholds that statistic: logit = 4 - 40*relu(meanR-meanB),
    so color frames get m ~ 0 and single-band frames m = sigmoid(4) ~ 0.98.
    The spatial branch is zeroed out; it carries no signal the synthetic
    frames need, and ``classify`` skips it (see ``SwitchWeights``).
    """
    c = FRAME_CHANNELS
    fused_in = c * POOL_HW[0] * POOL_HW[1] + SPECTRAL_HIDDEN
    spec_w = np.zeros((SPECTRAL_HIDDEN, c))
    spec_w[0, 0] = 1.0
    spec_w[0, c - 1] = -1.0
    spec_w[1, 0] = -1.0
    spec_w[1, c - 1] = 1.0
    fuse1_w = np.zeros((FUSION_HIDDEN, fused_in))
    fuse1_w[0, c * POOL_HW[0] * POOL_HW[1]] = 1.0  # pick spectral unit 0
    fuse2_w = np.zeros((1, FUSION_HIDDEN))
    fuse2_w[0, 0] = -40.0
    return SwitchWeights(
        conv_w=np.zeros((c, c, 3, 3)),
        conv_b=np.zeros(c),
        spec_w=spec_w,
        spec_b=np.zeros(SPECTRAL_HIDDEN),
        fuse1_w=fuse1_w,
        fuse1_b=np.zeros(FUSION_HIDDEN),
        fuse2_w=fuse2_w,
        fuse2_b=np.array([4.0]),
    )


def conv3x3(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """3x3 convolution, stride 1, zero padding 1.  Forward only.

    x: (C_in, H, W); w: (C_out, C_in, 3, 3); b: (C_out,).

    Each channel is zero-padded once into a flat row of (H + 3) * (W + 2)
    values: one zero row above the plane, two below, one zero column on each
    side.  With row stride W + 2, tap (di, dj) of every output pixel lies in
    the window of length H * (W + 2) that starts at di * (W + 2) + dj.  Each
    tap is then one (C_out, C_in) @ (C_in, H * (W + 2)) product on a view of
    that window, accumulated into the output; each output row carries two pad
    columns, which are dropped.  The taps are accumulated one at a time, not
    stacked into a (C_in * 9, H * (W + 2)) column matrix for a single product:
    that matrix is ~0.9 MB per 3x64x64 frame, and allocating it every frame
    costs more in page faults than the whole convolution.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 3 or w.ndim != 4 or w.shape[1] != x.shape[0] or w.shape[2:] != (3, 3):
        raise ShapeError(f"conv3x3: x {x.shape} vs kernel {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"conv3x3: bias {b.shape} vs kernel {w.shape}")
    c_in, h, wd = x.shape
    stride = wd + 2
    padded = np.zeros((c_in, h + 3, stride), dtype=np.float64)
    padded[:, 1 : h + 1, 1 : wd + 1] = x
    flat = padded.reshape(c_in, -1)
    n = h * stride
    out = np.repeat(b[:, None], n, axis=1)
    for di in range(3):
        for dj in range(3):
            start = di * stride + dj
            out += w[:, :, di, dj] @ flat[:, start : start + n]
    return out.reshape(-1, h, stride)[:, :, :wd]


def spatial_branch(f_in: Tensor, w: SwitchWeights) -> Tensor:
    """conv -> adaptive max pool to 4x4 -> relu -> flatten.

    relu is monotone, so it commutes with the max pool; applying it to the
    pooled 4x4 grid instead of the full plane gives the same values.
    """
    pooled = adaptive_max_pool(conv3x3(f_in, w.conv_w, w.conv_b), POOL_HW)
    return relu(pooled).ravel()


def spectral_branch(means: Tensor, w: SwitchWeights) -> Tensor:
    """Channel means (from ``pixel_statistics``) -> linear -> relu.

    ``means`` is one frame's (C,) vector or a (T, 1, C) stack of them (see
    the module docstring).  ``SwitchWeights`` checked its own shapes once;
    only the means' shape is checked here.
    """
    if means.shape != (w.channels,) and (means.ndim != 3 or means.shape[1:] != (1, w.channels)):
        if means.ndim == 1 or (means.ndim == 3 and means.shape[1] == 1):
            raise ShapeError(f"spectral_branch: {means.shape[-1]}-channel means, {w.channels}-channel weights")
        raise ShapeError(f"spectral_branch: means of shape {means.shape}, need (C,) or (T, 1, C)")
    return np.maximum(means @ w.spec_w.T + w.spec_b, 0.0)


def modality_weight(f_spa: Tensor, f_spe: Tensor, w: SwitchWeights) -> float | Tensor:
    """Fuse the two branch vectors into the modality weight m in [0, 1].

    One frame's 1-D vectors give m as a float; (T, 1, k) stacks give the
    (T,) array of every frame's m, bit for bit (see the module docstring).
    """
    hidden = np.maximum(np.concatenate((f_spa, f_spe), axis=-1) @ w.fuse1_w.T + w.fuse1_b, 0.0)
    logit = hidden @ w.fuse2_w.T + w.fuse2_b
    if logit.ndim == 1:
        return scalar_sigmoid(logit[0])
    return sigmoid_pair(logit[..., 0, 0]).value


def pixel_statistics(img: Image) -> tuple[float, Tensor]:
    """White-pixel ratio and per-channel means of ``features()``'s values, both exact.

    A pixel is white iff its gray level is >= WHITE_LEVEL, counted without
    forming a gray image.  The gray level is the integer BT.601 luma rounded
    half up, (v + 500) // 1000 with v = 299 r + 587 g + 114 b the luma in
    thousandths (v = 1000 p on 1-channel frames), so a pixel is white iff
    v >= 1000 * WHITE_LEVEL - 500.  A frame whose largest pixel value is
    below WHITE_LEVEL has v <= 1000 * (WHITE_LEVEL - 1) everywhere and skips
    the count.  The channel sums are a ones vector times each block of rows;
    see the module docstring.
    """
    n = img.width * img.height
    if n == 0:
        raise ShapeError("pixel_statistics: empty image")
    rows = img.pixels.reshape(n, img.channels).astype(np.float32)
    white = 0
    if img.pixels.max() >= WHITE_LEVEL:  # else every luma is at most 1000 * (WHITE_LEVEL - 1)
        white = np.count_nonzero(rows @ _LUMA_WEIGHTS[img.channels] >= _WHITE_LUMA)
    sums = np.zeros(img.channels)
    for start in range(0, n, _SUM_BLOCK):
        block = rows[start : start + _SUM_BLOCK]
        sums += _BLOCK_ONES[: len(block)] @ block
    return float(white) / n, sums / (255.0 * n)


def stack_statistics(frames: np.ndarray) -> tuple[Tensor, Tensor]:
    """``pixel_statistics`` of every frame of a (T, H, W, C) uint8 stack, bit for bit.

    Returns the (T,) white ratios and the (T, C) channel means.  The
    channel sums stay integers: each column's sum over the rows (uint16 on
    frames of at most _U16_COLUMN_ROWS rows, else uint64), then the uint64
    sum of each channel's column sums.  The white count runs only on frames
    whose largest value reaches WHITE_LEVEL, each on float32 blocks of at
    most _SUM_BLOCK pixels, so no float copy of the stack, or of a whole
    large frame, is made.
    """
    if frames.ndim != 4 or frames.dtype != np.uint8 or frames.shape[3] not in (1, 3):
        raise ShapeError(
            f"stack_statistics: need a (T, H, W, 1 or 3) uint8 stack, got {frames.dtype} {frames.shape}"
        )
    t, h, wd, c = frames.shape
    n = h * wd
    if n == 0:
        raise ShapeError("stack_statistics: empty frames")
    cols = frames.sum(axis=1, dtype=np.uint16 if h <= _U16_COLUMN_ROWS else np.uint64)
    # Summed along a contiguous axis: a sum over the strided width axis is ~5x slower.
    sums = np.ascontiguousarray(cols.transpose(0, 2, 1)).sum(axis=2, dtype=np.uint64)
    white = np.zeros(t, dtype=np.int64)
    for i in np.flatnonzero(frames.max(axis=(1, 2, 3)) >= WHITE_LEVEL).tolist():
        rows = frames[i].reshape(n, c)
        for start in range(0, n, _SUM_BLOCK):
            block = rows[start : start + _SUM_BLOCK].astype(np.float32)
            white[i] += np.count_nonzero(block @ _LUMA_WEIGHTS[c] >= _WHITE_LUMA)
    return white / n, sums / (255.0 * n)


def is_over_exposed(img: Image, rho: float = DEFAULT_RHO) -> tuple[bool, float]:
    """White-pixel ratio test (``pixel_statistics``).  Invalid iff the ratio strictly exceeds rho."""
    if not 0.0 <= rho <= 1.0:  # NaN fails both compares
        raise ValueError(f"is_over_exposed: rho must be a number in [0, 1], got {rho!r}")
    white_ratio = pixel_statistics(img)[0]
    return white_ratio > rho, white_ratio


def classify(img: Image, w: SwitchWeights, rho: float = DEFAULT_RHO) -> TriStateDecision:
    """Full tri-state decision for one frame.

    Over-exposure is checked first; the modality weight is computed and
    reported either way (downstream consumers use it even on invalid frames).
    When ``w``'s plan skips the spatial branch, its zero vector stands in for
    ``spatial_branch(img.features(), w)`` and no feature plane is built: no
    fusion column reads that branch, so m stays bit-identical (see
    ``SwitchWeights``).  The stages are looked up by module name on every
    call, so code that wraps them sees every frame.
    """
    if not 0.0 <= rho <= 1.0:  # NaN fails both compares
        raise ValueError(f"classify: rho must be a number in [0, 1], got {rho!r}")
    white_ratio, means = pixel_statistics(img)
    f_spa = spatial_branch(img.features(), w) if w.spatial_zeros is None else w.spatial_zeros
    m = modality_weight(f_spa, spectral_branch(means, w), w)
    if white_ratio > rho:
        state = TriState.INVALID
    elif m >= 0.5:
        state = TriState.NIR
    else:
        state = TriState.RGB
    return TriStateDecision(state=state, m=m, white_ratio=white_ratio)


def classify_stack(frames: np.ndarray, w: SwitchWeights, rho: float = DEFAULT_RHO) -> list[TriStateDecision]:
    """``classify`` of every frame of a (T, H, W, C) uint8 stack, bit for bit.

    ``stack_statistics`` takes every frame's pixel statistics in one pass,
    and ``spectral_branch`` and ``modality_weight`` each run once, on
    (T, 1, k) stacks.  When ``w``'s plan runs the spatial branch, it runs
    frame by frame on each frame's ``Image.features`` plane.  Errors come
    in ``classify``'s order, and weights of another channel count raise
    ``classify``'s ``ShapeError``.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"classify_stack: rho must be a number in [0, 1], got {rho!r}")
    white_ratio, means = stack_statistics(frames)
    t, h, wd, c = frames.shape
    if t == 0:
        return []
    if w.spatial_zeros is None:
        f_spa = np.stack([spatial_branch(Image(wd, h, c, frame).features(), w) for frame in frames])
    else:
        f_spa = np.broadcast_to(w.spatial_zeros, (t, w.spatial_zeros.size))
    m = modality_weight(f_spa[:, None, :], spectral_branch(means[:, None, :], w), w)
    return [
        TriStateDecision(
            state=TriState.INVALID if ratio > rho else TriState.NIR if mi >= 0.5 else TriState.RGB,
            m=mi,
            white_ratio=ratio,
        )
        for mi, ratio in zip(m.tolist(), white_ratio.tolist())
    ]
