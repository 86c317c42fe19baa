"""Command-line surface: exit codes, determinism, end-to-end pipeline."""

import base64
import json
import warnings

import pytest

from xmtrack.cli import main
from xmtrack.io import load_trackrun, save_scenario
from xmtrack.metrics import metrics_csv
from xmtrack.sim import Scenario, scenario_to_dict


@pytest.fixture()
def scenario_file(tmp_path):
    sc = Scenario(
        name="cli-demo",
        frames=30,
        initial_box=(100.0, 256.0, 30.0, 30.0),
        velocity=(4.0, 0.0),
        sigma=2.0,
        modality_schedule=[(0, 15, "rgb"), (15, 30, "nir")],
        invalid_windows=[(12, 20)],
        seed=7,
    )
    path = tmp_path / "scenario.json"
    save_scenario(path, sc)
    return path


@pytest.fixture()
def sequence_file(tmp_path, scenario_file):
    out = tmp_path / "seq.jsonl"
    assert main(["simulate", str(scenario_file), "--out", str(out)]) == 0
    return out


def test_simulate_track_eval_pipeline(tmp_path, sequence_file):
    run_path = tmp_path / "run.json"
    rc = main(
        ["track", str(sequence_file), "--out", str(run_path), "--motion", "ctp"]
    )
    assert rc == 0
    assert run_path.exists()

    prefix = tmp_path / "metrics"
    assert main(["eval", str(run_path), "--out", str(prefix)]) == 0
    csv_text = (tmp_path / "metrics.csv").read_text()
    assert csv_text.startswith("sequence,tag,PR,SR,N\n")
    payload = json.loads((tmp_path / "metrics.json").read_text())
    assert payload["sequence"] == "cli-demo"
    assert "all" in payload["tags"]

    # the emitted CSV is exactly the library's rendering of the stored run
    name, run = load_trackrun(run_path)
    assert csv_text == metrics_csv(name, run)


def test_track_rerun_with_same_seed_is_byte_identical(tmp_path, sequence_file):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        rc = main(
            ["track", str(sequence_file), "--out", str(out), "--motion", "ctp"]
        )
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_rerun_is_byte_identical(tmp_path, scenario_file):
    out1 = tmp_path / "s1.jsonl"
    out2 = tmp_path / "s2.jsonl"
    for out in (out1, out2):
        assert main(["simulate", str(scenario_file), "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sigma_override_changes_sequence(tmp_path, scenario_file):
    base = tmp_path / "base.jsonl"
    quiet = tmp_path / "quiet.jsonl"
    assert main(["simulate", str(scenario_file), "--out", str(base)]) == 0
    assert main(["simulate", str(scenario_file), "--out", str(quiet), "--sigma", "0"]) == 0
    assert base.read_bytes() != quiet.read_bytes()


def test_motion_presets_produce_different_runs(tmp_path, sequence_file):
    outputs = {}
    for preset in ("off", "kf", "ctp"):
        out = tmp_path / f"{preset}.json"
        assert main(["track", str(sequence_file), "--out", str(out), "--motion", preset]) == 0
        outputs[preset] = out.read_bytes()
    assert outputs["off"] != outputs["kf"]
    assert outputs["kf"] != outputs["ctp"]


@pytest.fixture()
def turning_sequence(tmp_path):
    """A turn with a 12-frame blackout: past the default inflation cap (k = 6)."""
    sc = Scenario(
        name="cli-turn",
        frames=40,
        initial_box=(100.0, 256.0, 30.0, 30.0),
        velocity=(4.0, 0.0),
        turn_rate=0.02,
        modality_schedule=[(0, 20, "rgb"), (20, 40, "nir")],
        invalid_windows=[(10, 22)],
        seed=7,
    )
    save_scenario(tmp_path / "turn.json", sc)
    out = tmp_path / "turn.jsonl"
    assert main(["simulate", str(tmp_path / "turn.json"), "--out", str(out)]) == 0
    return out


def _track(sequence, out, *extra) -> bytes:
    assert main(["track", str(sequence), "--out", str(out), *map(str, extra)]) == 0
    return out.read_bytes()


# One non-default value per config key; each alone must move the ctp track.
CONFIG_CHANGES = {
    "p0_diag": [1.0] * 8,
    "q_diag": [0.5] * 4 + [0.01] * 4,
    "r_diag": [1.0] * 4,
    "theta": 2.0,
    "cap_mult": 3.0,
    "epsilon": 0.5,
    "rho": 0.99,
    "motion": "cv",
    "turn_rate": 0.0,
    "use_reliability": False,
    "inflate_on_invalid": False,
}


def test_track_honors_config_file(tmp_path, turning_sequence):
    base = _track(turning_sequence, tmp_path / "base.json")
    cfg = tmp_path / "filter.json"
    for key, value in CONFIG_CHANGES.items():
        cfg.write_text(json.dumps({key: value}))
        changed = _track(turning_sequence, tmp_path / "run.json", "--config", cfg)
        assert changed != base, key


def test_flags_beat_config_file(tmp_path, turning_sequence):
    cfg = tmp_path / "filter.json"
    cfg.write_text('{"rho": 0.99, "epsilon": 0.5, "theta": 2.0}')
    flags = ("--rho", 0.1, "--epsilon", 0.01, "--theta", 1.2)
    flags_only = _track(turning_sequence, tmp_path / "a.json", *flags)
    both = _track(turning_sequence, tmp_path / "b.json", "--config", cfg, *flags)
    assert both == flags_only
    assert flags_only != _track(turning_sequence, tmp_path / "c.json")


@pytest.mark.parametrize(
    "text",
    [
        '{"bogus": 1}',
        '{"q_diag": [0.1, 0.1, 0.1]}',
        '{"r_diag": [4.0, 4.0, 0.0, 4.0]}',
        '{"p0_diag": [10, 10, 10, 10, 100, 100, 100, NaN]}',
        '{"theta": 0.5}',
        '{"cap_mult": 0.9}',
        '{"epsilon": 0}',
        '{"rho": 1.5}',
        '{"use_reliability": "false"}',
        '{"motion": "spiral"}',
        '{"turn_rate": "fast"}',
        '[1, 2]',
    ],
)
def test_bad_config_file_exits_2(tmp_path, sequence_file, text, capsys):
    cfg = tmp_path / "filter.json"
    cfg.write_text(text)
    out = tmp_path / "run.json"
    assert main(["track", str(sequence_file), "--out", str(out), "--config", str(cfg)]) == 2
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("flag", [("--rho", "-0.1"), ("--epsilon", "0"), ("--theta", "0.5")])
def test_out_of_range_flag_exits_2(tmp_path, sequence_file, flag, capsys):
    out = tmp_path / "run.json"
    assert main(["track", str(sequence_file), "--out", str(out), *flag]) == 2
    capsys.readouterr()


def test_track_seed_flag_is_gone(tmp_path, sequence_file, capsys):
    out = tmp_path / "run.json"
    assert main(["track", str(sequence_file), "--out", str(out), "--seed", "5"]) == 1
    capsys.readouterr()


def test_non_finite_observation_exits_2(tmp_path, turning_sequence, capsys):
    lines = turning_sequence.read_text().splitlines()
    frame = json.loads(lines[5])
    frame["observed"][1] = float("nan")
    lines[5] = json.dumps(frame)
    bad = tmp_path / "nan.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run.json"
    assert main(["track", str(bad), "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def _resize_image(frame, width, height):
    image = frame["image"]
    image.update(width=width, height=height)
    image["pixels_b64"] = base64.b64encode(bytes(width * height * image["channels"])).decode()


def _grayscale_image(frame):
    image = frame["image"]
    image["channels"] = 1
    image["pixels_b64"] = base64.b64encode(bytes(image["width"] * image["height"])).decode()


def _gt_width(width):
    return lambda f: f.update(gt=[f["gt"][0], f["gt"][1], width, f["gt"][3]])


# Each edit of frame 4 (file line 6), or of the frame on the line that
# BAD_FRAME_LINE names, makes one malformed or inconsistent frame.
BAD_FRAMES = {
    "index_not_integer": lambda f: f.update(index="x"),
    "width_not_integer": lambda f: f["image"].update(width="wide"),
    "height_not_integer": lambda f: f["image"].update(height=12.5),
    "channels_not_integer": lambda f: f["image"].update(channels="3"),
    "pixel_count_mismatch": lambda f: f["image"].update(width=65),
    "image_smaller_than_scenario": lambda f: _resize_image(f, 32, 32),
    "grayscale_image": _grayscale_image,
    "modality_unknown": lambda f: f.update(modality="xyz"),
    "index_duplicated": lambda f: f.update(index=3),
    "index_skipped": lambda f: f.update(index=5),
    "valid_not_boolean": lambda f: f.update(valid="false"),
    "confidence_above_one": lambda f: f.update(s=1.5),
    "confidence_below_zero": lambda f: f.update(s=-0.1),
    "gt_negative_width": _gt_width(-1.0),
    "gt_zero_width_on_frame_0": _gt_width(0.0),
}
BAD_FRAME_LINE = {"gt_zero_width_on_frame_0": 2}


@pytest.mark.parametrize("case", sorted(BAD_FRAMES))
def test_malformed_frame_exits_2_naming_file_and_line(tmp_path, sequence_file, case, capsys):
    line = BAD_FRAME_LINE.get(case, 6)
    lines = sequence_file.read_text().splitlines()
    frame = json.loads(lines[line - 1])
    BAD_FRAMES[case](frame)
    lines[line - 1] = json.dumps(frame)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run.json"
    assert main(["track", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:{line}: " in err and err.count("\n") == 1
    assert not out.exists()


# Each function turns a valid track run into a malformed one.
BAD_TRACK_RUNS = {
    "pred_not_list": lambda p: {**p, "pred": 5},
    "gt_not_list": lambda p: {**p, "gt": 5},
    "tags_not_list": lambda p: {**p, "tags": 5},
    "tag_not_string": lambda p: {**p, "tags": [[1]] + p["tags"][1:]},
    "tags_a_string": lambda p: {**p, "tags": ["rgb"] + p["tags"][1:]},
    "negative_box_size": lambda p: {**p, "pred": [[1.0, 1.0, -5.0, 5.0]] + p["pred"][1:]},
    "not_an_object": lambda p: [p],
}


@pytest.mark.parametrize("case", sorted(BAD_TRACK_RUNS))
def test_malformed_track_run_exits_2(tmp_path, sequence_file, case, capsys):
    run_path = tmp_path / "run.json"
    assert main(["track", str(sequence_file), "--out", str(run_path)]) == 0
    run_path.write_text(json.dumps(BAD_TRACK_RUNS[case](json.loads(run_path.read_text()))))
    capsys.readouterr()
    assert main(["eval", str(run_path), "--out", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("q", [1e308, 1e307])
def test_degenerate_filter_exits_2_with_one_line(tmp_path, turning_sequence, capsys, q):
    config = tmp_path / "huge_q.json"
    config.write_text(json.dumps({"q_diag": [q] * 8}))
    out = tmp_path / "run.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy overflow warnings would print more lines
        rc = main(["track", str(turning_sequence), "--out", str(out), "--config", str(config)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "filter degenerated" in err
    assert not out.exists()


def test_usage_errors_exit_1(capsys):
    assert main(["bogus-subcommand"]) == 1
    assert main([]) == 1
    assert main(["track", "--no-such-flag"]) == 1
    capsys.readouterr()  # swallow argparse noise


def test_missing_input_exits_2(tmp_path):
    assert main(["track", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "o.json")]) == 2
    assert main(["simulate", str(tmp_path / "absent.json"), "--out", str(tmp_path / "s.jsonl")]) == 2
    assert main(["eval", str(tmp_path / "absent.json"), "--out", str(tmp_path / "m")]) == 2


def test_negative_switch_radius_exits_2(tmp_path):
    d = scenario_to_dict(Scenario(name="radius", frames=10))
    d["switch_radius"] = -1
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    assert main(["simulate", str(path), "--out", str(tmp_path / "s.jsonl")]) == 2


def test_non_positive_scenario_size_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    for key in ("frame_width", "frame_height", "image_width", "image_height"):
        for value in (0, -64):
            d = scenario_to_dict(Scenario(name="size", frames=10))
            d[key] = value
            path.write_text(json.dumps(d))
            assert main(["simulate", str(path), "--out", str(tmp_path / "s.jsonl")]) == 2, key
    capsys.readouterr()


# Each entry edits a valid scenario file and adds simulate flags; every one
# is rejected before anything is rendered.
BAD_SCENARIOS = {
    "seed_flag_negative": ({}, ["--seed", "-1"]),
    "sigma_flag_nan": ({}, ["--sigma", "nan"]),
    "sigma_flag_negative": ({}, ["--sigma", "-1"]),
    "seed_negative": ({"seed": -5}, []),
    "seed_not_integer": ({"seed": 1.5}, []),
    "turn_rate_infinite": ({"turn_rate": float("inf")}, []),
    "velocity_overflows_the_path": ({"velocity": [1e308, 1e308]}, []),
    "velocity_one_entry": ({"velocity": [4.0]}, []),
    "frames_not_integer": ({"frames": 30.5}, []),
    "initial_box_three_entries": ({"initial_box": [100.0, 256.0, 30.0]}, []),
    "initial_box_zero_width": ({"initial_box": [100.0, 256.0, 0.0, 30.0]}, []),
    "sigma_nan": ({"sigma": float("nan")}, []),
    "switch_noise_boost_nan": ({"switch_noise_boost": float("nan")}, []),
    "window_bound_not_integer": ({"invalid_windows": [[12.5, 20]]}, []),
}


@pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
def test_bad_scenario_exits_2_with_one_line(tmp_path, scenario_file, case, capsys):
    edits, flags = BAD_SCENARIOS[case]
    scenario = json.loads(scenario_file.read_text())
    scenario.update(edits)
    scenario_file.write_text(json.dumps(scenario))
    out = tmp_path / "seq.jsonl"
    assert main(["simulate", str(scenario_file), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_ablate_rejects_a_negative_seed_like_an_empty_suite(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["ablate", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def test_corrupt_input_exits_2(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not a sequence\n")
    assert main(["track", str(bad), "--out", str(tmp_path / "o.json")]) == 2


def test_gradcheck_passes_and_injected_bug_exits_3(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "linear" in out and "siou" in out
    assert main(["gradcheck", "--inject-bug"]) == 3
    capsys.readouterr()


def test_ablate_writes_ordering_report(tmp_path):
    out = tmp_path / "ablation.json"
    rc = main(["ablate", "--suites", "1", "--seed", "0", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"ordering_fraction", "strict_ctp_over_off_fraction", "suites"}
    assert len(payload["suites"]) == 1
    row = payload["suites"][0]["results"]
    assert set(row) == {"off", "kf", "ekf", "ctp"}
    sr = {k: v["SR"] for k, v in row.items()}
    assert sr["ctp"] >= sr["ekf"] >= sr["kf"] >= sr["off"]


def test_ablate_rejects_empty_suite(tmp_path):
    assert main(["ablate", "--suites", "0", "--out", str(tmp_path / "x.json")]) == 1
