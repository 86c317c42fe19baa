"""File formats round-trip bit-exactly; bad inputs become DataError."""

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
from xmtrack.sim import Scenario, generate


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
    metadata = {"type", "index", "gt", "modality", "valid", "observed", "s"}
    assert all(set(json.loads(line)) == metadata for line in path.read_text().splitlines()[1:])
    back = load_sequence(path)
    assert back.scenario == sc
    assert len(back.records) == len(seq.records)
    for ra, rb in zip(seq.records, back.records):
        assert ra.index == rb.index
        assert ra.modality == rb.modality
        assert ra.valid == rb.valid
        assert ra.s == rb.s
        assert (ra.gt.cx, ra.gt.cy, ra.gt.w, ra.gt.h) == (
            rb.gt.cx, rb.gt.cy, rb.gt.w, rb.gt.h,
        )
        assert (rb.image.width, rb.image.height, rb.image.channels) == (
            ra.image.width, ra.image.height, ra.image.channels,
        )
        np.testing.assert_array_equal(rb.image.pixels, ra.image.pixels)


@pytest.mark.parametrize(
    "key, value",
    [("observed", [1.0, float("nan"), 3.0, 4.0]), ("gt", [1.0, 2.0, float("inf"), 4.0]),
     ("s", float("nan")), ("s", "high")],
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
    assert cfg.use_reliability is True


def test_session_config_overlays_only_the_keys_it_sets(tmp_path):
    ct = MotionKind.COORDINATED_TURN
    base = SessionConfig(theta=2.0, motion=MotionModel(ct, 0.02), use_reliability=False)
    path = tmp_path / "overlay.json"
    path.write_text('{"turn_rate": 0.05, "epsilon": 0.01, "q_diag": [1, 1, 1, 1, 2, 2, 2, 2]}')
    assert load_session_config(path, base) == replace(
        base, epsilon=0.01, q_diag=(1, 1, 1, 1, 2, 2, 2, 2), motion=MotionModel(ct, 0.05)
    )
    path.write_text('{"motion": "cv"}')  # kind alone keeps the base rate
    assert load_session_config(path, base).motion == MotionModel(MotionKind.CONSTANT_VELOCITY, 0.02)
    path.write_text("{}")
    assert load_session_config(path, base) == base

