"""Simulator: determinism, motion geometry, noise statistics, ablations."""

import json
import tracemalloc

import numpy as np
import pytest

from dataclasses import asdict, replace

import box_oracle
import kalman_oracle as oracle
import render_oracle
import stub_oracle
from pixel_oracle import grayscale
from schedule_oracle import is_invalid, near_switch, scheduled_modality
from xmtrack.ctp import FrameInput, MotionKind, MotionModel, SessionConfig, TrackerSession
from xmtrack.metrics import TrackRun, cle, tag_breakdown
from xmtrack.sim import (
    FILTER_PRESETS,
    FRAME_CHANNELS,
    FRAME_CHUNK_BYTES,
    MAX_STACK_BYTES,
    MOTION_PRESETS,
    HarnessConfig,
    Scenario,
    _invalid_observation,
    ablation_suite,
    classify_sequence,
    filter_inputs,
    generate,
    preset_config,
    render_frame,
    run,
    run_ablation_suite,
    run_filters,
)
from xmtrack.state_switch import TriState


def _straight(frames=30, sigma=2.0, seed=0, **kw):
    return Scenario(
        name="straight",
        frames=frames,
        initial_box=(100.0, 256.0, 30.0, 30.0),
        velocity=(4.0, 0.0),
        sigma=sigma,
        seed=seed,
        **kw,
    )


def test_zero_velocity_keeps_target_fixed():
    sc = Scenario(name="still", frames=10, velocity=(0.0, 0.0), sigma=0.0)
    seq = generate(sc)
    for rec in seq.records:
        assert (rec.gt.cx, rec.gt.cy) == (256.0, 256.0)


def test_first_frame_is_the_initial_box():
    seq = generate(_straight(frames=3, sigma=0.0))
    assert (seq.records[0].gt.cx, seq.records[0].gt.cy) == (100.0, 256.0)


def test_cv_motion_advances_linearly():
    seq = generate(_straight(frames=11, sigma=0.0))
    assert seq.records[10].gt.cx - seq.records[0].gt.cx == pytest.approx(40.0)
    assert seq.records[10].gt.cy == 256.0


def test_turn_motion_matches_transition_oracle():
    sc = Scenario(
        name="turn",
        frames=20,
        initial_box=(96.0, 256.0, 30.0, 30.0),
        velocity=(0.0, -4.0),
        turn_rate=0.025,
        sigma=0.0,
    )
    seq = generate(sc)
    F = oracle.turn_matrix(0.025)
    state = np.array([96.0, 256.0, 30.0, 30.0, 0.0, -4.0, 0.0, 0.0])
    for rec in seq.records:
        assert abs(rec.gt.cx - state[0]) < 1e-9
        assert abs(rec.gt.cy - state[1]) < 1e-9
        state = F @ state


def test_generation_is_bit_deterministic():
    a = generate(_straight(seed=42))
    b = generate(_straight(seed=42))
    for ra, rb in zip(a.records, b.records):
        assert ra.image.pixels.tobytes() == rb.image.pixels.tobytes()
        assert (ra.observed.cx, ra.observed.cy, ra.observed.w, ra.observed.h) == (
            rb.observed.cx,
            rb.observed.cy,
            rb.observed.w,
            rb.observed.h,
        )
        assert ra.s == rb.s


def test_different_seeds_change_observations():
    a = generate(_straight(seed=1))
    b = generate(_straight(seed=2))
    assert any(
        ra.observed.cx != rb.observed.cx for ra, rb in zip(a.records, b.records)
    )


def test_zero_sigma_observations_are_exact_with_full_confidence():
    seq = generate(_straight(frames=40, sigma=0.0))
    for rec in seq.records:  # no switches scheduled, so no damping anywhere
        assert rec.observed.cx == rec.gt.cx
        assert rec.observed.cy == rec.gt.cy
        assert rec.s == 1.0


def test_confidence_is_damped_near_modality_switches():
    sc = _straight(
        frames=40, sigma=0.0, modality_schedule=[(0, 20, "rgb"), (20, 40, "nir")]
    )
    seq = generate(sc)
    for t, rec in enumerate(seq.records):
        if abs(t - 20) <= sc.switch_radius:
            assert rec.s == 0.5
        else:
            assert rec.s == 1.0


def test_observation_noise_statistics():
    seq = generate(_straight(frames=400, sigma=2.0, seed=3))
    dx = np.array([r.observed.cx - r.gt.cx for r in seq.records])
    assert abs(dx.mean()) < 0.3
    assert abs(dx.std() - 2.0) < 0.3


# Ablation suites; sigma 0 (no stub draws); no noise boost at switches; and
# blackouts from frame 0, one past a band switch.
STUB_ORACLE_CASES = {
    **{sc.name: sc for seed in (0, 5) for sc in ablation_suite(seed)},
    "sigma-0": _straight(frames=40, sigma=0.0, modality_schedule=[(0, 20, "rgb"), (20, 40, "nir")]),
    "boost-1": _straight(
        frames=40, sigma=3.0, seed=4, switch_noise_boost=1.0,
        modality_schedule=[(0, 15, "nir"), (15, 40, "rgb")], invalid_windows=[(25, 30)],
    ),
    "frame-0-invalid": _straight(
        frames=30, seed=6, switch_noise_boost=4.0, turn_rate=0.02,
        modality_schedule=[(0, 10, "nir")], invalid_windows=[(0, 5), (9, 12)],
    ),
}


@pytest.mark.parametrize("name", list(STUB_ORACLE_CASES))
def test_generated_columns_equal_the_frame_by_frame_oracle_bit_for_bit(name):
    sc = STUB_ORACLE_CASES[name]
    seq = generate(sc)
    frames = stub_oracle.replay(sc)
    assert len(frames) == len(seq.frames) == len(seq.s)
    for t, (pixels, gt, observed, s) in enumerate(frames):
        assert seq.frames[t].tobytes() == pixels.tobytes(), t
        assert seq.gt[t].tobytes() == np.array([gt.cx, gt.cy, gt.w, gt.h]).tobytes(), t
        assert seq.observed[t].tobytes() == np.array([observed.cx, observed.cy, observed.w, observed.h]).tobytes(), t
        assert seq.s[t].tobytes() == np.float64(s).tobytes(), t


def test_modality_schedule_gaps_default_to_rgb():
    sc = _straight(frames=15, modality_schedule=[(5, 10, "nir")])
    mods = [scheduled_modality(sc, t) for t in range(sc.frames)]
    assert mods[:5] == ["rgb"] * 5
    assert mods[5:10] == ["nir"] * 5
    assert mods[10:] == ["rgb"] * 5


def test_invalid_windows_mark_frames_and_whiten_pixels():
    sc = _straight(frames=30, invalid_windows=[(10, 18)])
    seq = generate(sc)
    for t, rec in enumerate(seq.records):
        in_window = 10 <= t < 18
        assert is_invalid(sc, t) == in_window
        white = np.count_nonzero(grayscale(rec.image) >= 250) / (64 * 64)
        if in_window:
            assert white > 0.4
        else:
            assert white < 0.1


def test_classifier_recovers_schedule_exactly():
    sc = _straight(
        frames=60,
        modality_schedule=[(0, 20, "rgb"), (20, 40, "nir"), (40, 60, "rgb")],
        invalid_windows=[(25, 35)],
        seed=5,
    )
    seq = generate(sc)
    decisions = classify_sequence(seq)
    for t, dec in enumerate(decisions):
        if is_invalid(sc, t):
            assert dec.state == TriState.INVALID
        elif scheduled_modality(sc, t) == "nir":
            assert dec.state == TriState.NIR
        else:
            assert dec.state == TriState.RGB


def test_nir_frames_collapse_channels_rgb_frames_do_not():
    sc = _straight(frames=20, modality_schedule=[(10, 20, "nir")])
    seq = generate(sc)
    for t, rec in enumerate(seq.records):
        hwc = rec.image.pixels.reshape(64, 64, 3)
        if scheduled_modality(sc, t) == "nir":
            assert np.array_equal(hwc[..., 0], hwc[..., 1])
            assert np.array_equal(hwc[..., 0], hwc[..., 2])
        else:
            assert hwc[..., 0].mean() > hwc[..., 2].mean() + 20.0


def test_render_frame_into_a_strided_view_equals_a_contiguous_render():
    sc = _straight(frames=1)
    gt = (256.0, 256.0, 30.0, 30.0)  # (cx, cy, w, h)
    for nir, invalid in ((True, False), (False, False), (False, True)):
        want = np.zeros((64, 64, 3), np.uint8)
        render_frame(sc, nir, invalid, gt, np.random.default_rng(11), want)
        base = np.zeros((64, 128, 3), np.uint8)
        view = base[:, ::2]
        assert not view.flags.c_contiguous
        render_frame(sc, nir, invalid, gt, np.random.default_rng(11), view)
        assert np.array_equal(view, want) and not np.any(base[:, 1::2])
        if nir:
            assert np.array_equal(want[..., 0], want[..., 1])
            assert np.array_equal(want[..., 0], want[..., 2])


@pytest.mark.parametrize("image_size", [(64, 64), (48, 80)], ids=["64x64", "48x80"])
def test_render_frame_matches_the_per_channel_oracle_bit_for_bit(image_size):
    # The one-block RGB draw against three per-channel normal draws: the same
    # pixels and the same generator state after every frame, on every kind of
    # frame and with the target inside, across the edge and outside the image.
    iw, ih = image_size
    sc = Scenario(name="render", frames=1, frame_width=640, frame_height=400, image_width=iw, image_height=ih)
    boxes = [
        (320.0, 200.0, 60.0, 40.0),  # inside
        (5.0, 398.0, 50.0, 30.0),  # across the left and bottom edges
        (660.0, 200.0, 30.0, 30.0),  # wholly outside
        (320.0, 200.0, 2000.0, 2000.0),  # covers the whole image
    ]
    kinds = [(False, False), (True, False), (False, True)]  # RGB, NIR, invalid
    for seed in (0, 1, 7, 12345):
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in range(24):  # kinds and boxes interleaved on one stream
            nir, invalid = kinds[k % 3]
            gt = boxes[(k // 3) % len(boxes)]
            got, want = np.empty((ih, iw, 3), np.uint8), np.empty((ih, iw, 3), np.uint8)
            render_frame(sc, nir, invalid, gt, mine, got)
            render_oracle.render_frame(sc, nir, invalid, gt, theirs, want)
            assert got.tobytes() == want.tobytes(), (seed, k, nir, invalid, gt)
            assert mine.bit_generator.state == theirs.bit_generator.state, (seed, k)


def test_run_is_deterministic():
    seq = generate(_straight(seed=8))
    a = run(seq, HarnessConfig(motion="ctp"))
    b = run(seq, HarnessConfig(motion="ctp"))
    for pa, pb in zip(a.pred, b.pred):
        assert (pa.cx, pa.cy, pa.w, pa.h) == (pb.cx, pb.cy, pb.w, pb.h)


@pytest.mark.parametrize("motion", MOTION_PRESETS)
def test_run_rejects_a_negative_observed_size(motion):
    seq = generate(_straight(frames=30, seed=8))
    seq.observed[5, 2:] = -40.0
    with pytest.raises(ValueError, match=r"^step: observed box has a negative size, w=-40\.0, h=-40\.0$"):
        run(seq, HarnessConfig(motion=motion))


def test_off_preset_freezes_box_during_invalid_window():
    sc = _straight(frames=30, invalid_windows=[(12, 20)], seed=4)
    seq = generate(sc)
    tr = run(seq, HarnessConfig(motion="off"))
    frozen = tr.pred[11]
    for t in range(12, 20):
        assert (tr.pred[t].cx, tr.pred[t].cy) == (frozen.cx, frozen.cy)
    # and it comes back to life on the first valid frame
    assert tr.pred[20].cx != frozen.cx


def test_ctp_window_predictions_are_affine_in_time():
    """CV coasting means second differences of every reported component
    vanish inside the window — any observation leakage would break this."""
    sc = _straight(frames=40, invalid_windows=[(15, 30)], seed=6)
    seq = generate(sc)
    tr = run(seq, HarnessConfig(motion="ctp"))
    comps = np.array([[b.cx, b.cy, b.w, b.h] for b in tr.pred[15:30]])
    second_diff = np.diff(comps, n=2, axis=0)
    assert np.max(np.abs(second_diff)) < 1e-9


def test_track_run_tags_cover_window_and_modality():
    sc = _straight(frames=30, invalid_windows=[(12, 20)],
                   modality_schedule=[(0, 30, "nir")])
    seq = generate(sc)
    tr = run(seq, HarnessConfig(motion="ctp"))
    assert "invalid-window" in tr.tags[15]
    assert "nir" in tr.tags[5]


def scan_switch_frames(sc):
    """Full-frame scan: every t whose scheduled modality differs from t - 1."""
    return [
        t
        for t in range(1, sc.frames)
        if scheduled_modality(sc, t) != scheduled_modality(sc, t - 1)
    ]


def _random_schedule(rng, frames):
    """Segments between random cut points; some spans are left as gaps."""
    n_cuts = int(rng.integers(0, min(frames, 8) + 1))
    cuts = sorted(rng.choice(frames + 1, size=n_cuts, replace=False).tolist())
    schedule = [
        (start, end, str(rng.choice(["rgb", "nir"])))
        for start, end in zip(cuts, cuts[1:])
        if rng.random() < 0.7
    ]
    rng.shuffle(schedule)  # schedule order must not matter
    return schedule


def test_switch_frames_match_full_scan():
    """The three masks against per-frame scans, on fixed and random schedules."""
    fixed = [
        (10, []),  # empty schedule
        (1, [(0, 1, "nir")]),  # a single frame
        (1, []),
        (12, [(3, 6, "nir")]),  # gaps on both sides default to rgb
        (12, [(0, 4, "nir"), (4, 9, "nir"), (9, 12, "rgb")]),  # adjacent, same band
        (12, [(0, 12, "nir")]),  # touches 0 and frames
        (12, [(2, 5, "rgb"), (7, 12, "nir")]),
    ]
    rng = np.random.default_rng(10)
    window_rng = np.random.default_rng(11)  # a stream of its own keeps the schedules as they were
    random_cases = []
    for _ in range(300):
        frames = int(rng.integers(1, 40))
        random_cases.append((frames, _random_schedule(rng, frames)))
    for frames, schedule in fixed + random_cases:
        radius = int(rng.integers(0, 4))
        windows = [(s, e) for s, e, _ in _random_schedule(window_rng, frames)]
        sc = Scenario(name="sched", frames=frames, modality_schedule=schedule,
                      invalid_windows=windows, switch_radius=radius)
        switches = scan_switch_frames(sc)
        nir, invalid, near = sc.frame_masks()
        for mask in (nir, invalid, near):
            assert (mask.dtype, mask.shape) == (np.dtype(bool), (frames,))
        assert nir.tolist() == [scheduled_modality(sc, t) == "nir" for t in range(frames)], schedule
        assert invalid.tolist() == [is_invalid(sc, t) for t in range(frames)], windows
        for t in range(frames):
            want = any(abs(t - sw) <= radius for sw in switches)
            assert near_switch(sc, t) == want == near[t], (frames, schedule, t)
    # A radius past the int64 range reaches every frame.
    huge = Scenario(name="sched", frames=12, modality_schedule=[(3, 6, "nir")], switch_radius=2**70)
    assert huge.frame_masks()[2].all() and all(near_switch(huge, t) for t in range(12))


def test_generate_and_run_build_the_masks_once_and_query_no_frame(monkeypatch):
    calls = []
    for name in ("scheduled_modality", "near_switch"):
        monkeypatch.setattr(Scenario, name, lambda self, t, name=name: calls.append(name))
    original = Scenario.frame_masks
    monkeypatch.setattr(Scenario, "frame_masks", lambda self: calls.append("frame_masks") or original(self))
    sc = _straight(frames=60, modality_schedule=[(0, 25, "rgb"), (25, 50, "nir")],
                   invalid_windows=[(30, 40)])
    seq = generate(sc)
    assert calls == ["frame_masks"]
    run(seq, HarnessConfig(motion="ctp"))
    assert calls == ["frame_masks"] * 2


def test_one_frame_reads_are_the_masks_and_reject_a_frame_outside_the_scenario():
    sc = _straight(frames=12, modality_schedule=[(3, 6, "nir")], switch_radius=1)
    nir, _, near = sc.frame_masks()
    assert [sc.scheduled_modality(t) for t in range(12)] == ["nir" if n else "rgb" for n in nir.tolist()]
    assert [sc.near_switch(t) for t in range(12)] == near.tolist() and type(sc.near_switch(0)) is bool
    for t in (-1, sc.frames):  # a negative frame must not wrap to the last one
        for read in (sc.scheduled_modality, sc.near_switch):
            with pytest.raises(IndexError, match=f"frame {t} outside"):
                read(t)


def test_scenario_dict_roundtrip():
    sc = _straight(frames=25, invalid_windows=[(5, 9)],
                   modality_schedule=[(0, 25, "nir")])
    back = Scenario(**json.loads(json.dumps(asdict(sc))))  # JSON turns every tuple into a list
    assert back == sc


def test_scenario_rejects_bad_windows():
    with pytest.raises(ValueError):
        generate(_straight(frames=10, invalid_windows=[(8, 15)]))
    with pytest.raises(ValueError):
        generate(_straight(frames=20, invalid_windows=[(2, 8), (5, 12)]))


# Each field value is malformed in shape; the ValueError names the field and the window.
MALFORMED_WINDOWS = {
    "schedule_entry_a_dict": ("modality_schedule", [{"start": 0, "end": 5}], "{'start': 0, 'end': 5}"),
    "schedule_entry_null": ("modality_schedule", [None], "None"),
    "schedule_entry_without_a_band": ("modality_schedule", [[0, 5]], "[0, 5]"),
    "schedule_not_a_list": ("modality_schedule", 5, "5"),
    "invalid_window_of_three": ("invalid_windows", [[0, 5, 7]], "[0, 5, 7]"),
    "invalid_window_a_string": ("invalid_windows", ["ab"], "'ab'"),
    "invalid_windows_null": ("invalid_windows", None, "None"),
    "invalid_window_float_bound": ("invalid_windows", [[0, 5], [12.5, 20]], "[12.5, 20]"),
    "invalid_window_bool_bound": ("invalid_windows", [(True, 5)], "(True, 5)"),
    "schedule_float_bound": ("modality_schedule", [[0, 5.0, "rgb"]], "[0, 5.0, 'rgb']"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_WINDOWS))
def test_scenario_names_a_malformed_window_in_a_value_error(case):
    name, value, shown = MALFORMED_WINDOWS[case]
    with pytest.raises(ValueError) as info:
        Scenario(name="shape", frames=30, **{name: value})
    shape = "[start, end, band]" if name == "modality_schedule" else "[start, end]"
    assert str(info.value) == f"Scenario: {name} window {shown} is not {shape} with integer bounds"


def test_scenario_windows_keep_their_bound_overlap_and_band_messages():
    for kwargs, message in (
        ({"invalid_windows": [[0, 50]]}, "Scenario invalid windows: window [0, 50) outside [0, 30)"),
        ({"invalid_windows": [[0, 5], [3, 8]]}, "Scenario invalid windows: overlapping windows at 3"),
        ({"modality_schedule": [[25, 40, "rgb"]]}, "Scenario schedule: window [25, 40) outside [0, 30)"),
        ({"modality_schedule": [[0, 9, "nir"], [5, 12, "rgb"]]}, "Scenario schedule: overlapping windows at 5"),
        ({"modality_schedule": [[0, 5, "uv"]]}, "Scenario: unknown modality 'uv'"),
    ):
        with pytest.raises(ValueError) as info:
            Scenario(name="windows", frames=30, **kwargs)
        assert str(info.value) == message


def test_scenario_windows_become_tuples_of_ints_and_a_band_string():
    sc = Scenario(name="windows", frames=30, modality_schedule=[[np.int64(0), 10, "nir"]],
                  invalid_windows=((np.int32(3), 6),))
    assert sc.modality_schedule == [(0, 10, "nir")] and sc.invalid_windows == [(3, 6)]
    assert [type(v) for v in (*sc.modality_schedule[0], *sc.invalid_windows[0])] == [int, int, str, int, int]


@pytest.mark.parametrize("name, n", [("initial_box", 4), ("velocity", 2)])
@pytest.mark.parametrize("value", [5, None, 3.5])
def test_a_box_or_velocity_that_is_not_a_list_is_named(name, n, value):
    with pytest.raises(ValueError, match=rf"^Scenario: {name} needs {n} finite numbers$"):
        Scenario(name="bad", frames=30, **{name: value})


def test_scenario_rejects_nonpositive_frame_count():
    with pytest.raises(ValueError):
        Scenario(name="bad", frames=0)


def test_frame_stack_past_the_byte_cap_is_rejected_before_any_allocation():
    per_frame = 64 * 64 * 3
    at_cap = MAX_STACK_BYTES // per_frame
    assert Scenario(name="cap", frames=at_cap, velocity=(0, 0)).frames == at_cap
    for frames in (at_cap + 1, 2**40):
        with pytest.raises(ValueError, match="frame stack"):
            Scenario(name="big", frames=frames, velocity=(0, 0))


def test_frame_count_past_the_float_range_is_a_value_error():
    with pytest.raises(ValueError, match="within"):
        Scenario(name="long", frames=10**400)


def test_frames_narrower_than_20_px_render_invalid_observations():
    sc = Scenario(name="narrow", frames=6, frame_width=8, frame_height=12, invalid_windows=[(2, 4)])
    seq = generate(sc)
    for rec in seq.records[2:4]:
        assert rec.observed.w == 5.0 and rec.observed.h == 5.0


@pytest.mark.parametrize("width, height", [(512, 512), (64, 19), (19, 1), (1, 64)])
def test_invalid_observation_is_the_four_scalar_draws(width, height):
    """Bits and generator state match the per-coordinate draws, including the
    ``uniform(5, 5)`` of a frame narrower than 20 px."""
    sc = Scenario(name="sized", frames=1, frame_width=width, frame_height=height)
    got_rng, want_rng = np.random.default_rng(width * height), np.random.default_rng(width * height)
    for _ in range(3):
        got = np.asarray(_invalid_observation(sc, got_rng), dtype=np.float64)
        want = np.array(stub_oracle.invalid_observation(sc, want_rng), dtype=np.float64)
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_preset_configs():
    ct = MotionKind.COORDINATED_TURN
    assert preset_config("ctp", 0.02) == SessionConfig(motion=MotionModel(ct, 0.02))
    assert preset_config("ekf", 0.02) == SessionConfig(
        motion=MotionModel(ct, 0.02), epsilon=1.0, theta=1.0
    )
    for preset in ("off", "kf"):
        cfg = preset_config(preset, 0.02)
        assert cfg.motion == MotionModel(MotionKind.CONSTANT_VELOCITY, 0.02)
        assert cfg.epsilon == 1.0 and cfg.theta == 1.0
    with pytest.raises(ValueError):
        preset_config("ukf")
    with pytest.raises(ValueError):
        HarnessConfig(motion="ukf")


def test_harness_session_overrides_the_preset():
    sc = _straight(frames=40, invalid_windows=[(10, 22)], seed=5)
    seq = generate(sc)
    decisions = classify_sequence(seq)
    for preset in MOTION_PRESETS:
        implicit = run(seq, HarnessConfig(preset), decisions)
        explicit = run(seq, HarnessConfig(preset, preset_config(preset, sc.turn_rate)), decisions)
        assert implicit.pred == explicit.pred
    tuned = replace(preset_config("ctp"), r_diag=(1.0, 1.0, 1.0, 1.0))
    assert run(seq, HarnessConfig("ctp", tuned), decisions).pred != implicit.pred
    # off reads only rho: a session with every filter setting changed is still off
    frozen = replace(tuned, theta=3.0, epsilon=0.5)
    assert run(seq, HarnessConfig("off", frozen), decisions).pred == run(
        seq, HarnessConfig("off"), decisions
    ).pred


def test_ablation_table_matches_hand_count():
    scenarios = ablation_suite(4)
    runs = {preset: [] for preset in MOTION_PRESETS}
    for sc in scenarios:
        seq = generate(sc)
        decisions = classify_sequence(seq)
        for preset in MOTION_PRESETS:
            runs[preset].append(run(seq, HarnessConfig(preset), decisions))
    table = run_ablation_suite(4)
    for preset, trs in runs.items():
        pairs = [(p, g) for tr in trs for p, g in zip(tr.pred, tr.gt)]
        assert table[preset] == {
            "PR": 100.0 * sum(box_oracle.cle(p, g) < 20.0 for p, g in pairs) / len(pairs),
            "SR": 100.0 * sum(box_oracle.iou(p, g) > 0.5 for p, g in pairs) / len(pairs),
        }


def oracle_track(seq, decisions, preset):
    """Per-frame boxes (T, 4) of one preset, one frame at a time.

    ``off`` is a freeze loop; every other preset steps one TrackerSession.
    """
    sc = seq.scenario
    boxes = [seq.records[0].gt]
    if preset == "off":
        for rec, dec in zip(seq.records[1:], decisions[1:]):
            boxes.append(boxes[-1] if dec.state == TriState.INVALID else rec.observed)
    else:
        config = preset_config(preset, sc.turn_rate)
        session = TrackerSession(boxes[0], sc.frame_width, sc.frame_height, config)
        for rec, dec in zip(seq.records[1:], decisions[1:]):
            boxes.append(session.step(FrameInput(observed=rec.observed, s=rec.s, decision=dec)))
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64)


@pytest.mark.parametrize("seed", [0, 7, 49])
def test_lockstep_ablation_matches_one_session_per_track(seed):
    """The suite's one bank against a per-frame oracle per (scenario, preset)."""
    tracks = {preset: [] for preset in MOTION_PRESETS}
    gt = []
    rows = []
    for sc in ablation_suite(seed):
        seq = generate(sc)
        decisions = classify_sequence(seq)
        for preset in MOTION_PRESETS:
            tracks[preset].append(oracle_track(seq, decisions, preset))
        gt.append(seq.gt)
        inp = filter_inputs(seq, decisions)
        rows += [(inp, preset_config(preset, sc.turn_rate)) for preset in FILTER_PRESETS]
    boxes = run_filters(rows)
    assert boxes.shape == (3 * len(FILTER_PRESETS), 150, 4)
    boxes = boxes.reshape(3, len(FILTER_PRESETS), 150, 4)
    for p, preset in enumerate(FILTER_PRESETS):
        for j, want in enumerate(tracks[preset]):
            np.testing.assert_allclose(boxes[j, p], want, rtol=0.0, atol=1e-9)
    gt = np.concatenate(gt)
    pooled = {
        preset: tag_breakdown(
            TrackRun(pred_boxes=np.concatenate(trs), gt_boxes=gt, tags=[[] for _ in gt])
        )["all"]
        for preset, trs in tracks.items()
    }
    assert run_ablation_suite(seed) == {
        preset: {"PR": row.pr, "SR": row.sr} for preset, row in pooled.items()
    }


# Blackouts at the edges: from frame 1 (the first tracked frame), to the last
# frame, and over every frame after the initial box.
EDGE_BLACKOUTS = [
    dict(invalid_windows=[(1, 6), (24, 30)], modality_schedule=[(0, 12, "rgb"), (12, 30, "nir")]),
    dict(invalid_windows=[(1, 30)]),
    dict(invalid_windows=[(8, 12), (27, 30)], turn_rate=0.03),
]


@pytest.mark.parametrize("case", range(len(EDGE_BLACKOUTS)))
def test_run_matches_the_per_frame_loop_bit_for_bit(case):
    sc = _straight(frames=30, seed=11, **EDGE_BLACKOUTS[case])
    seq = generate(sc)
    decisions = classify_sequence(seq)
    want_tags = [
        [scheduled_modality(sc, t)]
        + ["invalid-window"] * is_invalid(sc, t)
        + ["switch"] * near_switch(sc, t)
        for t in range(sc.frames)
    ]
    for preset in MOTION_PRESETS:
        tr = run(seq, HarnessConfig(preset), decisions)
        got = np.array([(b.cx, b.cy, b.w, b.h) for b in tr.pred], dtype=np.float64)
        assert got.tobytes() == oracle_track(seq, decisions, preset).tobytes(), preset
        assert tr.gt == [rec.gt for rec in seq.records]
        assert tr.tags == want_tags


def test_lockstep_needs_sequences_of_one_length():
    short, long_ = (generate(_straight(frames=n)) for n in (10, 12))
    inputs = [filter_inputs(seq, classify_sequence(seq)) for seq in (short, long_)]
    with pytest.raises(ValueError):
        run_filters([(inp, preset_config("ctp")) for inp in inputs])


def test_ablation_suite_geometry_stays_in_frame():
    for sc in ablation_suite(0):
        seq = generate(sc)
        for rec in seq.records:
            assert 0.0 <= rec.gt.cx <= sc.frame_width
            assert 0.0 <= rec.gt.cy <= sc.frame_height
        assert sc.invalid_windows  # invalid-heavy by construction


def test_ablation_suite_has_three_motion_shapes():
    rates = sorted(sc.turn_rate for sc in ablation_suite(3))
    assert rates[0] < 0.0 < rates[2]
    assert rates[1] == 0.0


def test_ablation_suite_holds_one_frame_stack_at_a_time():
    """A scenario's frame stack is freed before the next scenario renders, so
    the suite's traced peak stays under two stacks."""
    sc = ablation_suite(1)[0]
    stack_bytes = sc.frames * sc.image_height * sc.image_width * FRAME_CHANNELS
    run_ablation_suite(1)  # warm-up: first-call allocations are not the suite's
    tracemalloc.start()
    try:
        run_ablation_suite(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * stack_bytes, (peak, stack_bytes)


def test_ablation_suite_holds_one_frame_chunk_at_a_time():
    """Each scenario renders and is classified one chunk of frames at a time,
    so the suite's traced peak stays under one and a half chunks: less than
    one scenario's frame stack."""
    sc = ablation_suite(1)[0]
    assert 1.5 * FRAME_CHUNK_BYTES < sc.frames * sc.image_height * sc.image_width * FRAME_CHANNELS
    run_ablation_suite(1)  # warm-up: first-call allocations are not the suite's
    tracemalloc.start()
    try:
        run_ablation_suite(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * FRAME_CHUNK_BYTES, peak


def test_single_suite_reproduces_motion_ordering():
    res = run_ablation_suite(0)
    assert set(res) == {"off", "kf", "ekf", "ctp"}
    sr = {k: v["SR"] for k, v in res.items()}
    assert sr["ctp"] >= sr["ekf"] >= sr["kf"] >= sr["off"]
    assert sr["ctp"] > sr["off"]
    for row in res.values():
        assert 0.0 <= row["PR"] <= 100.0
        assert 0.0 <= row["SR"] <= 100.0


def test_filters_track_well_on_clean_straight_path():
    seq = generate(_straight(frames=60, seed=9))
    for preset in ("kf", "ekf", "ctp"):
        tr = run(seq, HarnessConfig(motion=preset))
        assert tag_breakdown(tr)["all"].sr > 90.0
        late = [cle(p, g) for p, g in zip(tr.pred[20:], tr.gt[20:])]
        assert np.median(late) < 8.0
