"""File formats round-trip bit-exactly; bad inputs become DataError."""

import hashlib
import json

import numpy as np
import pytest

from dataclasses import replace

from xmtrack.ctp import BBox, MotionKind, MotionModel, SessionConfig
from xmtrack.io import (
    DataError,
    frames_path,
    load_scenario,
    load_sequence,
    load_session_config,
    load_trackrun,
    resolve_config_path,
    save_scenario,
    save_sequence,
    save_trackrun,
)
from xmtrack.metrics import TrackRun
from xmtrack.sim import Scenario, generate, run


def test_scenario_file_roundtrip(tmp_path):
    sc = Scenario(
        name="roundtrip",
        frames=12,
        velocity=(1.5, -2.0),
        turn_rate=0.01,
        modality_schedule=[(0, 6, "rgb"), (6, 12, "nir")],
        invalid_windows=[(3, 5)],
        sigma=1.25,
        seed=99,
    )
    path = tmp_path / "scenario.json"
    save_scenario(path, sc)
    assert load_scenario(path) == sc


def test_sequence_roundtrip(tmp_path):
    sc = Scenario(name="seqio", frames=6, sigma=1.0, seed=3,
                  modality_schedule=[(0, 3, "rgb"), (3, 6, "nir")],
                  invalid_windows=[(2, 3)])
    seq = generate(sc)
    path = tmp_path / "seq.jsonl"
    save_sequence(path, seq)
    frames = np.load(tmp_path / "seq.jsonl.npy")
    assert frames_path(path) == tmp_path / "seq.jsonl.npy"
    assert (frames.dtype, frames.shape) == (np.uint8, (6, sc.image_height, sc.image_width, 3))
    assert all(set(json.loads(line)) == {"observed", "s"} for line in path.read_text().splitlines()[1:])
    back = load_sequence(path)
    assert back.scenario == sc
    for name in ("frames", "gt", "observed", "s"):
        assert np.array_equal(getattr(back, name), getattr(seq, name)), name
    run(back)
    # generate, save_sequence, load_sequence and run never build the per-frame view.
    assert "records" not in vars(seq) and "records" not in vars(back)
    for s in (seq, back):
        for t, rec in enumerate(s.records):
            assert rec.observed == BBox(*s.observed[t])
            assert rec.gt == BBox(*s.gt[t])
            assert rec.s == s.s[t]
    assert len(back.records) == len(seq.records)
    for ra, rb in zip(seq.records, back.records):
        assert ra.s == rb.s
        assert ra.observed == rb.observed
        assert ra.gt == rb.gt
        assert (rb.image.width, rb.image.height, rb.image.channels) == (
            ra.image.width, ra.image.height, ra.image.channels,
        )
        np.testing.assert_array_equal(rb.image.pixels, ra.image.pixels)


# RGB, NIR, over-exposed and gap (RGB) frames on a 48x20 image; the target
# starts across the left and bottom edges and leaves the image by frame 13.
PINNED = Scenario(
    name="pinned",
    frames=24,
    frame_width=300,
    frame_height=200,
    image_width=48,
    image_height=20,
    initial_box=(5.0, 190.0, 40.0, 30.0),
    velocity=(-1.0, 2.0),
    modality_schedule=[(0, 8, "rgb"), (8, 16, "nir")],
    invalid_windows=[(10, 13), (20, 22)],
    seed=3,
)
PINNED_FRAMES_SHA256 = "d0802db07a51158f04cf4ece058faa52d9bd76483c1489307142a72df4f79829"
PINNED_JSONL_SHA256 = "5c05434df48cccf5edb884087df0e7e5e6176c94f862e60865a1cc8bc232e7b8"


def test_generated_bytes_are_pinned_and_records_view_one_stack(tmp_path):
    seq = generate(PINNED)
    assert (seq.frames.dtype, seq.frames.shape) == (np.uint8, (24, 20, 48, 3))
    assert hashlib.sha256(seq.frames.tobytes()).hexdigest() == PINNED_FRAMES_SHA256
    path = tmp_path / "pinned.jsonl"
    save_sequence(path, seq)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_JSONL_SHA256
    back = load_sequence(path)
    assert back.frames.tobytes() == seq.frames.tobytes()
    for s in (seq, back):
        for t, rec in enumerate(s.records):
            assert np.shares_memory(s.frames, rec.image.pixels)
            assert rec.image.pixels.tobytes() == s.frames[t].tobytes()


@pytest.mark.parametrize(
    "key, value",
    [
        ("observed", [1.0, float("nan"), 3.0, 4.0]),
        ("s", float("nan")),
        ("s", "high"),
        ("observed", [1.0, 2.0, -5.0, 4.0]),
        ("observed", [1.0, 2.0, 3.0, -0.5]),
    ],
)
def test_sequence_with_non_finite_values_is_data_error(tmp_path, key, value):
    sc = Scenario(name="nan", frames=4, seed=2)
    path = tmp_path / "seq.jsonl"
    save_sequence(path, generate(sc))
    lines = path.read_text().splitlines()
    frame = json.loads(lines[2])
    frame[key] = value
    lines[2] = json.dumps(frame)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=":3:"):
        load_sequence(path)


def test_trackrun_roundtrip(tmp_path):
    run = TrackRun(
        pred=[BBox(1.0, 2.0, 3.0, 4.0), BBox(5.0, 6.0, 7.0, 8.0)],
        gt=[BBox(1.5, 2.5, 3.0, 4.0), BBox(5.0, 6.0, 7.0, 8.0)],
        tags=[["rgb"], ["nir", "invalid-window"]],
    )
    path = tmp_path / "run.json"
    save_trackrun(path, "myseq", run)
    name, back = load_trackrun(path)
    assert name == "myseq"
    assert back.tags == run.tags
    for a, b in zip(run.pred + run.gt, back.pred + back.gt):
        assert (a.cx, a.cy, a.w, a.h) == (b.cx, b.cy, b.w, b.h)


def test_missing_file_is_data_error():
    with pytest.raises(DataError):
        load_scenario("nope/missing.json")


def test_config_dir_env_var_resolution(tmp_path, monkeypatch):
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    (cfg_dir / "filter.json").write_text(
        '{"theta": 2.0, "motion": "ct", "turn_rate": 0.05}'
    )
    monkeypatch.chdir(tmp_path)  # file is not in the cwd
    monkeypatch.setenv("XMTRACK_CONFIG_DIR", str(cfg_dir))
    assert resolve_config_path("filter.json") == cfg_dir / "filter.json"
    cfg = load_session_config("filter.json")
    assert cfg.theta == 2.0
    assert cfg.motion.kind == MotionKind.COORDINATED_TURN
    assert cfg.motion.turn_rate == 0.05
    monkeypatch.delenv("XMTRACK_CONFIG_DIR")
    with pytest.raises(DataError):
        resolve_config_path("filter.json")


def test_session_config_defaults_fill_missing_keys(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text('{"epsilon": 0.01}')
    cfg = load_session_config(path)
    assert cfg.epsilon == 0.01
    assert cfg.theta == 1.5
    assert cfg == SessionConfig(epsilon=0.01)


def test_session_config_overlays_only_the_keys_it_sets(tmp_path):
    ct = MotionKind.COORDINATED_TURN
    base = SessionConfig(theta=2.0, epsilon=1.0, motion=MotionModel(ct, 0.02))
    path = tmp_path / "overlay.json"
    path.write_text('{"turn_rate": 0.05, "epsilon": 0.01, "q_diag": [1, 1, 1, 1, 2, 2, 2, 2]}')
    assert load_session_config(path, base) == replace(
        base, epsilon=0.01, q_diag=(1, 1, 1, 1, 2, 2, 2, 2), motion=MotionModel(ct, 0.05)
    )
    path.write_text('{"motion": "cv"}')  # kind alone keeps the base rate
    assert load_session_config(path, base).motion == MotionModel(MotionKind.CONSTANT_VELOCITY, 0.02)
    path.write_text("{}")
    assert load_session_config(path, base) == base

