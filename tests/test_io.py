"""File formats round-trip bit-exactly; bad inputs become DataError."""

import hashlib
import json

import numpy as np
import pytest

from dataclasses import replace

from xmtrack.ctp import BBox, MotionKind, MotionModel, SessionConfig
from xmtrack.io import (
    DataError,
    frame_writer,
    frames_path,
    load_scenario,
    load_sequence,
    load_session_config,
    load_trackrun,
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


def _save(path, seq):
    """Write ``seq`` as ``simulate`` does: its stack through ``frame_writer``, its JSONL through ``save_sequence``."""
    with frame_writer(path, seq.scenario) as write:
        write(seq.frames)
        save_sequence(path, seq)


def test_sequence_roundtrip(tmp_path):
    sc = Scenario(name="seqio", frames=6, sigma=1.0, seed=3,
                  modality_schedule=[(0, 3, "rgb"), (3, 6, "nir")],
                  invalid_windows=[(2, 3)])
    seq = generate(sc)
    path = tmp_path / "seq.jsonl"
    _save(path, seq)
    frames = np.load(tmp_path / "seq.jsonl.npy")
    assert frames_path(path) == tmp_path / "seq.jsonl.npy"
    assert (frames.dtype, frames.shape) == (np.uint8, (6, sc.image_height, sc.image_width, 3))
    assert all(set(json.loads(line)) == {"observed", "s"} for line in path.read_text().splitlines()[1:])
    back = load_sequence(path)
    assert back.scenario == sc and back.frames is None  # the stack stays on disk
    back.frames = frames
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
    _save(path, seq)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_JSONL_SHA256
    back = load_sequence(path)
    back.frames = np.load(frames_path(path))  # load_sequence leaves the stack on disk
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
    _save(path, generate(sc))
    lines = path.read_text().splitlines()
    frame = json.loads(lines[2])
    frame[key] = value
    lines[2] = json.dumps(frame)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=":3:"):
        load_sequence(path)


def test_trackrun_roundtrip(tmp_path):
    run = TrackRun(
        pred_boxes=np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]),
        gt_boxes=np.array([[1.5, 2.5, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]),
        tags=[["rgb"], ["nir", "invalid-window"]],
    )
    path = tmp_path / "run.json"
    save_trackrun(path, "myseq", run)
    name, back = load_trackrun(path)
    assert name == "myseq"
    assert back.tags == run.tags
    for a, b in zip(run.pred + run.gt, back.pred + back.gt):
        assert (a.cx, a.cy, a.w, a.h) == (b.cx, b.cy, b.w, b.h)


def test_trackrun_roundtrips_bit_for_bit(tmp_path):
    pred = np.array([[-0.0, 0.1 + 0.2, 1 / 3, 2.0**60], [5e-324, 1e-300, 123456789.12345679, 0.0]])
    gt = np.array([[1.5, -2.5e17, 3.0, 4.0], [np.nextafter(5.0, 6.0), 6.0, 7.0, 8.0]])
    run = TrackRun(pred_boxes=pred, gt_boxes=gt, tags=[["rgb"], []])
    path = tmp_path / "run.json"
    save_trackrun(path, "bits", run)
    _, back = load_trackrun(path)
    assert back.pred_boxes.tobytes() == pred.tobytes() and back.gt_boxes.tobytes() == gt.tobytes()


def test_trackrun_reads_integer_valued_numbers_as_their_floats(tmp_path):
    big = 2**53 + 1  # rounds to the nearest float, as float() does
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({
        "format": "xmtrack-trackrun-v1",
        "sequence": "ints",
        "pred": [[1, -0, 3, big], [10**20, 2, 3.5, 4]],
        "gt": [[1, 2, 3, 4], [5, 6, 7, 8]],
        "tags": [[], []],
    }))
    _, run = load_trackrun(path)
    want = np.array([[1.0, 0.0, 3.0, float(big)], [1e20, 2.0, 3.5, 4.0]])
    assert run.pred_boxes.tobytes() == want.tobytes()
    save_trackrun(tmp_path / "again.json", "ints", run)
    _, again = load_trackrun(tmp_path / "again.json")
    assert again.pred_boxes.tobytes() == want.tobytes()
    assert json.loads((tmp_path / "again.json").read_text())["pred"] == want.tolist()


def test_frame_lines_are_the_json_encoders_bytes(tmp_path):
    seq = generate(Scenario(name="bytes", frames=4, seed=2))
    seq.observed[:] = [
        [-0.0, 5e-324, 1e16, 1.0],
        [0.1 + 0.2, 1e-7, 123456789.0, 2.5e300],
        [1.0, 2.0, 3.0, 4.0],
        [7.0, 8.0, 0.0, 0.0],
    ]
    seq.s[:] = [0.0, -0.0, 1.0, 1 / 3]
    path = tmp_path / "seq.jsonl"
    _save(path, seq)
    lines = path.read_text().splitlines()[1:]
    assert lines == [
        json.dumps({"observed": o, "s": s}, sort_keys=True, separators=(",", ":"))
        for o, s in zip(seq.observed.tolist(), seq.s.tolist())
    ]
    back = load_sequence(path)
    assert back.observed.tobytes() == seq.observed.tobytes() and back.s.tobytes() == seq.s.tobytes()


@pytest.mark.parametrize(
    "column, index, value",
    [
        ("observed", (2, 1), float("nan")),
        ("observed", (2, 3), float("inf")),
        ("s", 2, float("nan")),
        ("s", 2, -float("inf")),
    ],
)
def test_save_sequence_rejects_a_non_finite_column_and_writes_nothing(tmp_path, column, index, value):
    seq = generate(Scenario(name="nan", frames=4, seed=2))
    getattr(seq, column)[index] = value
    path = tmp_path / "seq.jsonl"
    with pytest.raises(DataError, match="frame 2 has a non-finite"):
        save_sequence(path, seq)
    assert not path.exists() and not frames_path(path).exists()


def test_missing_file_is_data_error():
    with pytest.raises(DataError):
        load_scenario("nope/missing.json")


def test_session_config_overlays_theta_and_motion_read_from_a_literal_path(tmp_path):
    path = tmp_path / "configs" / "filter.json"
    path.parent.mkdir()
    path.write_text('{"theta": 2.0, "motion": "ct", "turn_rate": 0.05}')
    turn = MotionModel(MotionKind.COORDINATED_TURN, 0.05)
    assert load_session_config(path) == SessionConfig(theta=2.0, motion=turn)


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

