"""Tri-state classifier: conv oracle, branch arithmetic, exposure boundary."""

import dataclasses
import math

import numpy as np
import pytest

from pixel_oracle import grayscale
from test_core import naive_max_pool
from xmtrack.core import ShapeError, relu, sigmoid_pair
from xmtrack.ctp import FrameInput, TrackerSession
from xmtrack.sim import MAX_IMAGE_PIXELS, Scenario, classify_sequence, generate
from xmtrack.state_switch import (
    FRAME_CHANNELS,
    FUSION_HIDDEN,
    POOL_HW,
    SPECTRAL_HIDDEN,
    WHITE_LEVEL,
    Image,
    SwitchWeights,
    TriState,
    classify,
    classify_stack,
    conv3x3,
    is_over_exposed,
    modality_weight,
    pixel_statistics,
    separator_switch_weights,
    spatial_branch,
    spectral_branch,
    stack_statistics,
)


def random_switch_weights(rng: np.random.Generator, c: int = FRAME_CHANNELS) -> SwitchWeights:
    """Seeded random initializer (scale 0.1) for property tests, for ``c``-channel frames."""
    fused_in = c * POOL_HW[0] * POOL_HW[1] + SPECTRAL_HIDDEN

    def init(*shape):
        return 0.1 * rng.standard_normal(shape)

    return SwitchWeights(
        conv_w=init(c, c, 3, 3),
        conv_b=init(c),
        spec_w=init(SPECTRAL_HIDDEN, c),
        spec_b=init(SPECTRAL_HIDDEN),
        fuse1_w=init(FUSION_HIDDEN, fused_in),
        fuse1_b=init(FUSION_HIDDEN),
        fuse2_w=init(1, FUSION_HIDDEN),
        fuse2_b=init(1),
    )


def naive_conv3x3(x, w, b):
    """Direct per-output-pixel loop with explicit zero padding."""
    c_in, h, wd = x.shape
    c_out = w.shape[0]
    out = np.zeros((c_out, h, wd))
    for o in range(c_out):
        for i in range(h):
            for j in range(wd):
                acc = b[o]
                for ci in range(c_in):
                    for di in (-1, 0, 1):
                        for dj in (-1, 0, 1):
                            ii, jj = i + di, j + dj
                            if 0 <= ii < h and 0 <= jj < wd:
                                acc += w[o, ci, di + 1, dj + 1] * x[ci, ii, jj]
                out[o, i, j] = acc
    return out


def test_conv3x3_matches_naive_loop():
    rng = np.random.default_rng(0)
    # (C_in, C_out, H, W): single channel, C_out != C_in, non-square and
    # degenerate planes
    for c_in, c_out, h, wd in [
        (2, 3, 5, 6),
        (1, 1, 5, 7),
        (2, 5, 5, 7),
        (3, 3, 1, 1),
        (3, 2, 9, 4),
        (1, 4, 4, 9),
    ]:
        x = rng.normal(size=(c_in, h, wd))
        w = rng.normal(size=(c_out, c_in, 3, 3))
        b = rng.normal(size=c_out)
        got = conv3x3(x, w, b)
        assert got.shape == (c_out, h, wd)
        np.testing.assert_allclose(got, naive_conv3x3(x, w, b), atol=1e-12)


def test_separator_weights_give_exactly_zero_conv():
    w = separator_switch_weights()
    f_in = np.random.default_rng(8).random(size=(3, 64, 64))
    assert not np.any(conv3x3(f_in, w.conv_w, w.conv_b))
    assert not np.any(spatial_branch(f_in, w))


def test_conv3x3_identity_kernel_passthrough():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 4, 4))
    w = np.zeros((3, 3, 3, 3))
    for c in range(3):
        w[c, c, 1, 1] = 1.0  # centre tap only
    np.testing.assert_allclose(conv3x3(x, w, np.zeros(3)), x, atol=1e-15)


def test_spatial_branch_output_width():
    rng = np.random.default_rng(2)
    w = random_switch_weights(rng)
    f_in = rng.random(size=(3, 16, 16))
    assert spatial_branch(f_in, w).shape == (3 * 16,)


def test_spectral_branch_is_relu_linear_of_channel_means():
    rng = np.random.default_rng(3)
    w = random_switch_weights(rng)
    img = Image(8, 8, 3, rng.integers(0, 256, 8 * 8 * 3))
    means = img.features().mean(axis=(1, 2))
    expected = relu(w.spec_w @ means + w.spec_b)
    np.testing.assert_allclose(spectral_branch(pixel_statistics(img)[1], w), expected, atol=1e-12)


def test_modality_weight_is_strictly_inside_unit_interval():
    rng = np.random.default_rng(4)
    for _ in range(25):
        w = random_switch_weights(rng)
        img = Image(10, 10, 3, rng.integers(0, 256, 10 * 10 * 3))
        m = modality_weight(spatial_branch(img.features(), w), spectral_branch(pixel_statistics(img)[1], w), w)
        assert 0.0 < m < 1.0


def test_grayscale_is_integer_bt601_half_up():
    # (249, 250, 250) rounds up to 250; (249, 249, 250) stays at 249
    img = Image(2, 1, 3, np.array([249, 250, 250, 249, 249, 250], dtype=np.uint8))
    gray = grayscale(img)
    assert gray[0, 0] == 250
    assert gray[0, 1] == 249


def _fixture_image(n_white: int, total: int = 100) -> Image:
    """10x10 single-channel image with exactly n_white pixels at 255."""
    px = np.full(total, 128, dtype=np.uint8)
    px[:n_white] = 255
    return Image(10, 10, 1, px)


def test_over_exposure_boundary_is_strict_at_rho():
    over40, ratio40 = is_over_exposed(_fixture_image(40), rho=0.40)
    over41, ratio41 = is_over_exposed(_fixture_image(41), rho=0.40)
    assert ratio40 == 0.40 and not over40  # ratio == rho stays valid
    assert ratio41 == 0.41 and over41


def test_rho_sweep_produces_nested_invalid_sets():
    images = [_fixture_image(k) for k in range(0, 101, 5)]
    previous = None
    for rho in (0.60, 0.50, 0.40, 0.30, 0.20):
        invalid = {i for i, im in enumerate(images) if is_over_exposed(im, rho)[0]}
        if previous is not None:
            assert previous <= invalid  # raising rho can only shrink the set
        previous = invalid


def _color_image(means, size=16, seed=0):
    rng = np.random.default_rng(seed)
    hwc = np.clip(rng.normal(means, 10.0, size=(size, size, 3)), 0, 245)
    return Image(size, size, 3, hwc.astype(np.uint8))


def _single_band_image(size=16, seed=0):
    rng = np.random.default_rng(seed)
    band = np.clip(rng.normal(120.0, 20.0, size=(size, size, 1)), 0, 245)
    hwc = np.repeat(band, 3, axis=2)
    return Image(size, size, 3, hwc.astype(np.uint8))


def test_separator_weights_split_color_from_single_band():
    w = separator_switch_weights()
    for seed in range(10):
        color = _color_image((140.0, 95.0, 55.0), seed=seed)
        mono = _single_band_image(seed=seed)
        d_color = classify(color, w)
        d_mono = classify(mono, w)
        assert d_color.state == TriState.RGB and d_color.m < 0.5
        assert d_mono.state == TriState.NIR and d_mono.m >= 0.5


def test_separator_modality_weight_values():
    # color frames land near sigmoid(4 - 40*(meanR-meanB)/255-scaled) ~ 0;
    # channel-collapsed frames land exactly at sigmoid(4)
    w = separator_switch_weights()
    mono = _single_band_image(seed=3)
    d = classify(mono, w)
    assert abs(d.m - 1.0 / (1.0 + np.exp(-4.0))) < 1e-12


def test_over_exposure_takes_precedence_but_m_is_still_reported():
    w = separator_switch_weights()
    white = Image(8, 8, 3, np.full(8 * 8 * 3, 255, dtype=np.uint8))
    d = classify(white, w)
    assert d.state == TriState.INVALID
    assert d.white_ratio == 1.0
    # all channels equal -> spectral separator sees a single-band frame
    assert d.m >= 0.5


def test_classify_respects_rho_override():
    w = separator_switch_weights()
    hwc = np.full((10, 10, 3), 128, dtype=np.uint8)
    hwc.reshape(100, 3)[:45] = 255  # 45% white pixels
    img = Image(10, 10, 3, hwc)
    assert classify(img, w, rho=0.40).state == TriState.INVALID
    assert classify(img, w, rho=0.50).state != TriState.INVALID


def test_tri_state_edges_through_classify_and_classify_stack():
    # All-zero weights give m = sigmoid(0) = 0.5 exactly, which is NIR.
    zero = SwitchWeights(**{k: np.zeros_like(v) for k, v in _weight_arrays(separator_switch_weights()).items()})
    gray = np.full((10, 10, 3), 128, dtype=np.uint8)
    at_rho = gray.copy()
    at_rho.reshape(100, 3)[:40] = 255  # white ratio exactly 0.40
    white = np.full((10, 10, 3), 255, dtype=np.uint8)
    frames = np.stack([gray, at_rho, white])
    for rho, want in (
        (0.40, [TriState.NIR, TriState.NIR, TriState.INVALID]),  # a ratio equal to rho is not invalid
        (0.39, [TriState.NIR, TriState.INVALID, TriState.INVALID]),  # over rho with m >= 0.5 is invalid
    ):
        stacked = classify_stack(frames, zero, rho)
        assert stacked == [classify(Image(10, 10, 3, frame), zero, rho) for frame in frames]
        assert [d.state for d in stacked] == want
        assert [d.m for d in stacked] == [0.5] * 3
        assert [d.white_ratio for d in stacked] == [0.0, 0.40, 1.0]


def naive_classify(img, w, rho=0.40):
    """Tri-state decision from the loop oracles: (state, m)."""
    f_in = img.features()
    white_ratio = np.count_nonzero(grayscale(img) >= 250) / (img.width * img.height)
    conv = relu(naive_conv3x3(f_in, w.conv_w, w.conv_b))
    f_spa = naive_max_pool(conv, POOL_HW).ravel()
    f_spe = relu(w.spec_w @ f_in.mean(axis=(1, 2)) + w.spec_b)
    hidden = relu(w.fuse1_w @ np.concatenate([f_spa, f_spe]) + w.fuse1_b)
    m = float(sigmoid_pair(w.fuse2_w @ hidden + w.fuse2_b).value[0])
    if white_ratio > rho:
        return TriState.INVALID, m
    return (TriState.NIR if m >= 0.5 else TriState.RGB), m


def test_classify_sequence_matches_naive_classifier():
    # Small non-square frames keep the per-pixel conv oracle fast.
    sc = Scenario(
        name="naive",
        frames=24,
        image_width=12,
        image_height=10,
        modality_schedule=[(0, 8, "rgb"), (8, 16, "nir"), (16, 24, "rgb")],
        invalid_windows=[(10, 13)],
        seed=11,
    )
    seq = generate(sc)
    rng = np.random.default_rng(12)
    for _ in range(3):
        w = random_switch_weights(rng)
        for rec, dec in zip(seq.records, classify_sequence(seq, w)):
            state, m = naive_classify(rec.image, w)
            assert dec.state == state
            assert abs(dec.m - m) <= 1e-12


def _weight_arrays(w):
    return {f.name: getattr(w, f.name) for f in dataclasses.fields(w) if f.init}


def test_switch_weights_shape_validation():
    rng = np.random.default_rng(7)
    arrays = _weight_arrays(random_switch_weights(rng))
    cases = [
        ("spec_w", np.zeros((2, 2)), ShapeError),
        ("conv_w", np.float64(0.5), ShapeError),  # 0-d: no conv_w.shape[0] to read
        ("conv_w", np.zeros(3), ShapeError),
        ("fuse2_b", np.array([np.nan]), ValueError),  # m would be NaN and read as RGB
        ("conv_b", np.array([0.0, np.inf, 0.0]), ValueError),
    ]
    for name, value, error in cases:
        with pytest.raises(error):
            SwitchWeights(**{**arrays, name: value})
    SwitchWeights(**arrays)  # the unmodified arrays still build


def test_white_ratio_matches_the_grayscale_oracle():
    # Every (r, g, b) in [230, 255]^3 once: its lumas hit every residue mod
    # 1000, so WHITE_LEVEL has pixels on both sides of its rounding boundary
    # and an off-by-one threshold changes the count.
    levels = np.arange(230, 256, dtype=np.uint8)
    cube = np.stack(np.meshgrid(levels, levels, levels, indexing="ij"), axis=-1)
    color = Image(width=26 * 26, height=26, channels=3, pixels=cube)
    rng = np.random.default_rng(9)
    mono = Image(width=40, height=32, channels=1, pixels=rng.integers(0, 256, 40 * 32))
    ramp = Image(width=256, height=1, channels=1, pixels=np.arange(256))
    for img in (color, mono, ramp):
        gray = grayscale(img)
        want = float(np.count_nonzero(gray >= WHITE_LEVEL)) / gray.size
        assert 0.0 < want < 1.0
        assert is_over_exposed(img)[1] == want, img.channels


def test_features_are_one_contiguous_plane_equal_to_the_scaled_pixels():
    rng = np.random.default_rng(10)
    for channels in (1, 3):
        img = Image(width=7, height=5, channels=channels, pixels=rng.integers(0, 256, 7 * 5 * channels))
        plane = img.pixels.reshape(5, 7, channels).transpose(2, 0, 1)
        f = img.features()
        assert f.flags.c_contiguous and f.dtype == np.float64
        assert np.array_equal(f, plane.astype(np.float64) / 255.0)


def test_channel_means_are_the_exact_channel_sums_over_255_hw():
    rng = np.random.default_rng(13)
    for channels in (1, 3):
        for width, height in ((7, 5), (64, 64), (33, 17), (160, 120)):
            img = Image(width, height, channels, rng.integers(0, 256, width * height * channels))
            sums = img.pixels.reshape(-1, channels).sum(axis=0, dtype=np.int64)
            means = pixel_statistics(img)[1]
            assert means.tolist() == (sums / (255 * width * height)).tolist()
            assert np.abs(means - img.features().mean(axis=(1, 2))).max() <= 2.3e-16
    white = Image(5, 3, 3, np.full(45, 255))
    assert pixel_statistics(white)[1].tolist() == [1.0, 1.0, 1.0]


def test_pixel_statistics_equal_the_integer_oracle():
    # Sim frames of all three states, a 1-channel image, a random image of
    # 77,100 rows (several channel-sum blocks) and all-white images whose
    # channel sums pass 2**24.  At 500,000 white rows a single float32 sum
    # over all rows is off by ~2e5; the blocks keep it exact.
    sc = Scenario(name="stats", frames=12, modality_schedule=[(6, 12, "nir")], invalid_windows=[(3, 5)], seed=6)
    seq = generate(sc)
    w = separator_switch_weights()
    assert {classify(rec.image, w).state for rec in seq.records} == set(TriState)
    rng = np.random.default_rng(14)
    images = [rec.image for rec in seq.records] + [
        Image(40, 32, 1, rng.integers(0, 256, 40 * 32)),
        Image(300, 257, 3, rng.integers(0, 256, 300 * 257 * 3)),
        Image(300, 300, 3, np.full(300 * 300 * 3, 255)),
        Image(1000, 500, 3, np.full(1000 * 500 * 3, 255, dtype=np.uint8)),
    ]
    # At the white bound: a frame whose largest value is 249 skips the luma
    # count (ratio 0); one pixel at 250 makes the ratio exactly 1/n; one
    # pixel at (250, 249, 249) has luma 249,299 thousandths, so it takes the
    # full path and is still not white.
    below = rng.integers(0, 250, 20 * 16 * 3, dtype=np.uint8)
    below[:3] = 249
    bound = []  # (image, its largest value, its white ratio)
    for channels in (1, 3):
        n_values = 20 * 16 * channels
        one_white = below[:n_values].copy()
        one_white[-channels:] = 250
        bound.append((Image(20, 16, channels, below[:n_values]), 249, 0.0))
        bound.append((Image(20, 16, channels, one_white), 250, 1 / 320))
    not_white = below.copy()
    not_white[-3:] = (250, 249, 249)
    bound.append((Image(20, 16, 3, not_white), 250, 0.0))
    for img, top, ratio in bound:
        assert img.pixels.max() == top and pixel_statistics(img)[0] == ratio
    for img in images + [img for img, _, _ in bound]:
        n = img.width * img.height
        want_ratio = float(np.count_nonzero(grayscale(img) >= WHITE_LEVEL)) / n
        want_means = img.pixels.reshape(n, img.channels).sum(axis=0, dtype=np.int64) / (255.0 * n)
        ratio, means = pixel_statistics(img)
        assert ratio == want_ratio, (img.width, img.height, img.channels)
        assert means.dtype == np.float64 and means.tobytes() == want_means.tobytes(), (img.width, img.height)
    ratio, means = pixel_statistics(images[-1])
    assert ratio == 1.0 and means.tolist() == [1.0, 1.0, 1.0]


def test_classify_rejects_empty_images_and_mismatched_channels():
    plans = (separator_switch_weights(), random_switch_weights(np.random.default_rng(1)))
    mono = Image(6, 6, 1, np.zeros(36))
    empty = Image(0, 0, 3, np.zeros(0))
    for w in plans:
        for img in (mono, empty):
            with pytest.raises(ShapeError):
                classify(img, w)
    with pytest.raises(ShapeError):
        pixel_statistics(empty)
    for means in (pixel_statistics(mono)[1], np.zeros(4), np.zeros((1, 3))):
        with pytest.raises(ShapeError):
            spectral_branch(means, plans[0])


def test_image_rejects_sizes_that_are_not_non_negative_integers():
    for width, height, channels in [(-2, -2, 3), (2.0, 2, 3), (2, np.float64(2), 3), (True, 4, 3), (4, 1, 3.0)]:
        with pytest.raises(ShapeError):
            Image(width, height, channels, np.zeros(12))
    assert Image(np.int64(2), 2, 3, np.zeros(12)).pixels.size == 12


def test_image_rejects_pixel_values_a_uint8_cast_would_change():
    # A plain uint8 cast of these arrays wraps 300 to 44 and -1 to 255.
    for pixels in ([300, 0, 0], [-1, 0, 0], [np.nan, 0, 0], [np.inf, 0, 0], [0.5, 0, 0], ["a", "b", "c"]):
        with pytest.raises(ValueError):
            Image(1, 1, 3, np.array(pixels))
    for pixels in ([0, 255, 7], [0.0, 255.0, 7.0], np.array([0, 255, 7], dtype=np.int16)):
        assert Image(1, 1, 3, pixels).pixels.tolist() == [0, 255, 7]
    # uint8 input is kept as it is, a view and not a copy.
    stack = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    assert np.shares_memory(Image(2, 2, 3, stack).pixels, stack)


def _features_calls(monkeypatch, run) -> int:
    """Calls of ``Image.features`` while ``run()`` runs."""
    calls = []
    features = Image.features

    def counted(img):
        calls.append(img)
        return features(img)

    monkeypatch.setattr(Image, "features", counted)
    run()
    monkeypatch.undo()
    return len(calls)


def _live_session(seq, w):
    sc = seq.scenario
    session = TrackerSession(seq.records[0].gt, sc.frame_width, sc.frame_height, switch_weights=w)
    for rec in seq.records:
        session.step(FrameInput(observed=rec.observed, s=rec.s, image=rec.image))


def test_skip_plan_builds_no_feature_plane_and_the_full_plan_one_per_frame(monkeypatch):
    seq = _stage_sequence()
    frames = len(seq.records)
    for w, want in (
        (separator_switch_weights(), 0),
        (random_switch_weights(np.random.default_rng(3)), frames),
    ):
        assert _features_calls(monkeypatch, lambda: classify_sequence(seq, w)) == want
        assert _features_calls(monkeypatch, lambda: _live_session(seq, w)) == want


STAGES = ("pixel_statistics", "spatial_branch", "spectral_branch", "modality_weight")


def _stage_calls(monkeypatch, w, seq):
    """Calls of each stage function while ``classify`` runs over ``seq`` with ``w``."""
    import xmtrack.state_switch as ss

    calls = dict.fromkeys(STAGES, 0)
    for name in STAGES:
        fn = getattr(ss, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ss, name, counted)
    for rec in seq.records:
        classify(rec.image, w)
    return calls


def _stage_sequence():
    return generate(Scenario(name="stages", frames=12, invalid_windows=[(4, 7)], seed=2))


def test_classify_full_plan_goes_through_all_four_stages(monkeypatch):
    # Code that wraps the stages (a profiler, a tracer) sees every classified
    # frame: classify looks them up per call.
    seq = _stage_sequence()
    w = random_switch_weights(np.random.default_rng(3))
    assert w.spatial_zeros is None
    assert _stage_calls(monkeypatch, w, seq) == dict.fromkeys(STAGES, len(seq.records))


def test_classify_skip_plan_never_runs_the_spatial_branch(monkeypatch):
    seq = _stage_sequence()
    want = dict.fromkeys(STAGES, len(seq.records))
    want["spatial_branch"] = 0
    assert _stage_calls(monkeypatch, separator_switch_weights(), seq) == want


def _without_spatial_columns(w, **changes):
    """``w`` rebuilt through the constructor with its spatial fusion columns zeroed."""
    fuse1_w = w.fuse1_w.copy()
    fuse1_w[:, : w.channels * POOL_HW[0] * POOL_HW[1]] = 0.0
    return dataclasses.replace(w, fuse1_w=fuse1_w, **changes)


def test_spatial_skip_gives_m_bit_identical_to_the_full_formula():
    seq = generate(Scenario(name="skip", frames=40, invalid_windows=[(12, 17)], seed=4))
    rng = np.random.default_rng(5)
    plans = [separator_switch_weights()]
    plans += [_without_spatial_columns(random_switch_weights(rng)) for _ in range(3)]
    invalid = 0
    for w in plans:
        assert w.spatial_zeros is not None
        for rec in seq.records:
            f_spa = spatial_branch(rec.image.features(), w)
            m = modality_weight(f_spa, spectral_branch(pixel_statistics(rec.image)[1], w), w)
            over, _ = is_over_exposed(rec.image)
            state = TriState.INVALID if over else (TriState.NIR if m >= 0.5 else TriState.RGB)
            d = classify(rec.image, w)
            assert d.m.hex() == m.hex() and d.state == state
            invalid += d.state == TriState.INVALID
    assert invalid > 0


def test_conv_weights_that_can_overflow_keep_the_full_path(monkeypatch):
    seq = _stage_sequence()
    w = random_switch_weights(np.random.default_rng(6))
    w = _without_spatial_columns(w, conv_w=np.full(w.conv_w.shape, 1e308))
    assert w.spatial_zeros is None
    with np.errstate(over="ignore", invalid="ignore"):
        calls = _stage_calls(monkeypatch, w, seq)
    assert calls["spatial_branch"] == len(seq.records)


def test_switch_weights_are_read_only_copies():
    source = _weight_arrays(random_switch_weights(np.random.default_rng(8)))
    source = {k: v.copy() for k, v in source.items()}
    w = SwitchWeights(**source)
    for name, arr in _weight_arrays(w).items():
        assert arr.dtype == np.float64
        with pytest.raises(ValueError):
            arr[...] = 0.0
        source[name][...] = 0.0  # the caller's array is not the weights'
        assert np.any(arr), name


def _per_frame(frames, w, rho=0.40):
    t, h, wd, c = frames.shape
    return [classify(Image(wd, h, c, frame), w, rho) for frame in frames]


def test_classify_sequence_equals_per_frame_classify_exactly():
    sc = Scenario(
        name="stack",
        frames=30,
        modality_schedule=[(0, 10, "rgb"), (10, 20, "nir"), (20, 30, "rgb")],
        invalid_windows=[(4, 8), (15, 17)],
        seed=9,
    )
    seq = generate(sc)
    rng = np.random.default_rng(10)
    plans = [separator_switch_weights(), random_switch_weights(rng)]
    plans.append(_without_spatial_columns(random_switch_weights(rng)))
    assert plans[1].spatial_zeros is None and plans[2].spatial_zeros is not None
    for w in plans:
        for rho in (0.0, 0.40, 0.9, 1.0):
            stack = classify_sequence(seq, w, rho)
            assert stack == [classify(rec.image, w, rho) for rec in seq.records]
    assert {d.state for d in classify_sequence(seq)} == set(TriState)


def test_classify_stack_equals_per_frame_classify_at_odd_sizes():
    rng = np.random.default_rng(11)
    skip = _without_spatial_columns(random_switch_weights(rng))
    full = random_switch_weights(rng)
    # 1x1 frames, white or not; the full plan's 4x4 pool cannot take them.
    tiny = np.array([[[[255, 255, 255]]], [[[251, 250, 3]]], [[[7, 8, 9]]]], dtype=np.uint8)
    for w in (separator_switch_weights(), skip):
        assert classify_stack(tiny, w) == _per_frame(tiny, w)
    with pytest.raises(ShapeError) as stacked:
        classify_stack(tiny, full)
    with pytest.raises(ShapeError) as single:
        classify(Image(1, 1, 3, tiny[0]), full)
    assert str(stacked.value) == str(single.value)
    # 263 x 67 pixels: more rows than a uint16 column sum takes, and a
    # value count that neither that nor the white-count block divides.
    odd = rng.integers(200, 256, size=(3, 263, 67, 3), dtype=np.uint8)
    odd[1] = rng.integers(0, 250, size=odd.shape[1:])
    for w in (separator_switch_weights(), skip, full):
        for rho in (0.1, 0.5):
            assert classify_stack(odd, w, rho) == _per_frame(odd, w, rho)
    mono = rng.integers(0, 256, size=(2, 5, 7, 1), dtype=np.uint8)
    ratios, means = stack_statistics(mono)
    for frame, ratio, row in zip(mono, ratios, means):
        want_ratio, want_means = pixel_statistics(Image(7, 5, 1, frame))
        assert ratio == want_ratio and row.tobytes() == want_means.tobytes()


def test_classify_stack_is_exact_on_a_white_frame_at_the_largest_size():
    # Each channel sum is 255 * 4096**2 = 4,278,190,080, just under 2**32:
    # a narrower accumulator wraps.  The means are then exactly 1, as on
    # any all-white frame, so a small one gives the expected decision.
    side = math.isqrt(MAX_IMAGE_PIXELS)
    white = np.full((1, side, side, 3), 255, dtype=np.uint8)
    ratios, means = stack_statistics(white)
    assert ratios.tolist() == [1.0] and means.tolist() == [[1.0, 1.0, 1.0]]
    small = Image(8, 8, 3, np.full(8 * 8 * 3, 255, dtype=np.uint8))
    w = separator_switch_weights()
    assert classify_stack(white, w) == [classify(small, w)]


def test_classify_sequence_raises_classify_s_error_for_weights_of_another_channel_count():
    seq = _stage_sequence()
    rng = np.random.default_rng(12)
    for w in (random_switch_weights(rng, c=1), _without_spatial_columns(random_switch_weights(rng, c=1))):
        with pytest.raises(ShapeError) as stacked:
            classify_sequence(seq, w)
        with pytest.raises(ShapeError) as single:
            classify(seq.records[0].image, w)
        assert str(stacked.value) == str(single.value)


def test_classify_stack_rejects_stacks_that_are_not_uint8_frames():
    w = separator_switch_weights()
    for frames in (np.zeros((2, 4, 4, 3)), np.zeros((2, 4, 4, 2), np.uint8), np.zeros((4, 4, 3), np.uint8),
                   np.zeros((2, 0, 4, 3), np.uint8)):
        with pytest.raises(ShapeError):
            classify_stack(frames, w)
    assert classify_stack(np.zeros((0, 4, 4, 3), np.uint8), w) == []


@pytest.mark.parametrize("rho", [float("nan"), -1.0, 1.5, float("inf"), -float("inf")])
def test_classifier_entry_points_reject_a_rho_outside_0_1(rho):
    w = separator_switch_weights()
    white = Image(8, 8, 3, np.full(8 * 8 * 3, 255, dtype=np.uint8))
    seq = _stage_sequence()
    for name, call in (
        ("classify", lambda: classify(white, w, rho)),
        ("is_over_exposed", lambda: is_over_exposed(white, rho)),
        ("classify_stack", lambda: classify_sequence(seq, rho=rho)),
    ):
        with pytest.raises(ValueError, match=f"{name}: rho must be"):
            call()
    for edge in (0.0, 1.0):
        assert classify(white, w, edge).state == (TriState.INVALID if edge < 1.0 else TriState.NIR)
