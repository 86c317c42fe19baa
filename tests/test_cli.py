"""Command-line surface: exit codes, determinism, end-to-end pipeline."""

import json
import re
import shutil
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from xmtrack.cli import main
from xmtrack.ctp import SessionConfig
from xmtrack.io import frames_path, load_scenario, load_trackrun, save_scenario
from xmtrack.metrics import metrics_csv
from xmtrack.sim import Scenario


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
    assert frames_path(out1).read_bytes() == frames_path(out2).read_bytes()


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


@pytest.mark.parametrize("prefix", ["cli-demo.ctp.metrics", "sub/", "sub/."])
def test_eval_appends_to_the_whole_prefix(tmp_path, sequence_file, prefix):
    run_path = tmp_path / "run.json"
    (tmp_path / "sub").mkdir()
    assert main(["track", str(sequence_file), "--out", str(run_path)]) == 0
    assert main(["eval", str(run_path), "--out", f"{tmp_path}/{prefix}"]) == 0
    written = sorted(
        p.relative_to(tmp_path).as_posix()
        for p in tmp_path.rglob("*")
        if p.name.endswith((".csv", ".json")) and p.name not in ("run.json", "scenario.json")
    )
    assert written == [f"{prefix}.csv", f"{prefix}.json"]


def test_dotted_prefixes_keep_separate_files(tmp_path, sequence_file):
    texts = {}
    for prefix, motion in (("run.v1", "off"), ("run.v2", "ctp")):
        run_path = tmp_path / f"{motion}.json"
        assert main(["track", str(sequence_file), "--out", str(run_path), "--motion", motion]) == 0
        assert main(["eval", str(run_path), "--out", str(tmp_path / prefix)]) == 0
        texts[prefix] = metrics_csv(*load_trackrun(run_path))
    assert texts["run.v1"] != texts["run.v2"]
    for prefix, text in texts.items():
        assert (tmp_path / f"{prefix}.csv").read_text() == text
        assert (tmp_path / f"{prefix}.json").is_file()


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


# The keys a --config file may set: the SessionConfig fields plus turn_rate.
CONFIG_KEYS = {f.name for f in fields(SessionConfig)} | {"turn_rate"}

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
}


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listing = readme.split("`--config` takes a JSON object with any of", 1)[1].split(".", 1)[0]
    assert set(re.findall(r"`(\w+)`", listing)) == CONFIG_KEYS


def test_track_honors_config_file(tmp_path, turning_sequence):
    assert set(CONFIG_CHANGES) == CONFIG_KEYS
    base = _track(turning_sequence, tmp_path / "base.json")
    cfg = tmp_path / "filter.json"
    for key, value in CONFIG_CHANGES.items():
        cfg.write_text(json.dumps({key: value}))
        changed = _track(turning_sequence, tmp_path / "run.json", "--config", cfg)
        assert changed != base, key


@pytest.mark.parametrize("motion", ["kf", "ekf"])
def test_theta_epsilon_and_cap_mult_move_the_plain_presets(tmp_path, turning_sequence, motion):
    # kf and ekf are the ctp filter at epsilon = 1 and theta = 1, so both reach them.
    def track(*extra):
        return _track(turning_sequence, tmp_path / "run.json", "--motion", motion, *extra)

    cfg = tmp_path / "filter.json"
    base = track()
    for key, value in (("theta", 3.0), ("epsilon", 0.5)):
        flagged = track(f"--{key}", value)
        cfg.write_text(json.dumps({key: value}))
        assert track("--config", cfg) == flagged != base, key
    # cap_mult caps the inflation, so it acts once theta > 1 and not before.
    cfg.write_text('{"cap_mult": 2.0}')
    assert track("--config", cfg) == base
    assert track("--config", cfg, "--theta", 3.0) != track("--theta", 3.0)


@pytest.mark.parametrize("key", ["use_reliability", "inflate_on_invalid"])
def test_removed_filter_switch_exits_2_naming_the_key(tmp_path, sequence_file, key, capsys):
    cfg = tmp_path / "filter.json"
    cfg.write_text(json.dumps({key: False}))
    out = tmp_path / "run.json"
    assert main(["track", str(sequence_file), "--out", str(out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert key in err and err.count("\n") == 1
    assert not out.exists()


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
        pytest.param('{"theta": 1%s}' % ("0" * 400), id="theta_past_the_float_range"),
    ],
)
def test_bad_config_file_exits_2(tmp_path, sequence_file, text, capsys):
    cfg = tmp_path / "filter.json"
    cfg.write_text(text)
    out = tmp_path / "run.json"
    assert main(["track", str(sequence_file), "--out", str(out), "--config", str(cfg)]) == 2
    assert not out.exists()
    capsys.readouterr()


def test_config_diagonal_of_big_integers_runs(tmp_path, sequence_file):
    cfg = tmp_path / "filter.json"
    cfg.write_text(json.dumps({"r_diag": [10**30] * 4}))  # integers past int64 made an object array
    assert main(["track", str(sequence_file), "--out", str(tmp_path / "run.json"), "--config", str(cfg)]) == 0


@pytest.mark.parametrize("flag", [("--rho", "-0.1"), ("--epsilon", "0"), ("--theta", "0.5")])
def test_out_of_range_flag_exits_2(tmp_path, sequence_file, flag, capsys):
    out = tmp_path / "run.json"
    assert main(["track", str(sequence_file), "--out", str(out), *flag]) == 2
    capsys.readouterr()


def test_track_seed_flag_is_gone(tmp_path, sequence_file, capsys):
    out = tmp_path / "run.json"
    assert main(["track", str(sequence_file), "--out", str(out), "--seed", "5"]) == 1
    capsys.readouterr()


def _edited_copy(sequence, bad, line, edit):
    """Copy a sequence and its frame stack to ``bad``, with ``edit`` applied to file line ``line``."""
    lines = sequence.read_text().splitlines()
    frame = json.loads(lines[line - 1])
    edit(frame)
    lines[line - 1] = json.dumps(frame)
    bad.write_text("\n".join(lines) + "\n")
    shutil.copyfile(frames_path(sequence), frames_path(bad))


def test_non_finite_observation_exits_2(tmp_path, turning_sequence, capsys):
    bad = tmp_path / "nan.jsonl"
    _edited_copy(turning_sequence, bad, 6, lambda f: f["observed"].__setitem__(1, float("nan")))
    out = tmp_path / "run.json"
    assert main(["track", str(bad), "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


# Each edit of frame 4 (file line 6) makes one malformed frame.
BAD_FRAMES = {
    "confidence_above_one": lambda f: f.update(s=1.5),
    "confidence_below_zero": lambda f: f.update(s=-0.1),
    "confidence_a_numeric_string": lambda f: f.update(s="0.5"),
    "confidence_a_padded_numeric_string": lambda f: f.update(s=" 1e-1 "),
    "confidence_true": lambda f: f.update(s=True),
    "observed_a_string_of_4_digits": lambda f: f.update(observed="1234"),
    "observed_5_numbers": lambda f: f.update(observed=f["observed"] + [1.0]),
    "observed_coordinate_a_numeric_string": lambda f: f["observed"].__setitem__(0, "9999"),
    "observed_coordinate_false": lambda f: f["observed"].__setitem__(2, False),
    "observed_negative_width": lambda f: f["observed"].__setitem__(2, -5.0),
    "observed_negative_height": lambda f: f["observed"].__setitem__(3, -5.0),
}


@pytest.mark.parametrize("case", sorted(BAD_FRAMES))
def test_malformed_frame_exits_2_naming_file_and_line(tmp_path, sequence_file, case, capsys):
    bad = tmp_path / "bad.jsonl"
    _edited_copy(sequence_file, bad, 6, BAD_FRAMES[case])
    out = tmp_path / "run.json"
    assert main(["track", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:6: " in err and err.count("\n") == 1
    assert not out.exists()


def test_frame_lines_with_the_old_keys_track_like_the_clean_file(tmp_path, scenario_file, sequence_file):
    # A frame line's keys other than observed and s are ignored: the header's
    # scenario alone gives each frame's index, gt, modality and validity.
    sc = load_scenario(scenario_file)
    lines = sequence_file.read_text().splitlines()
    for t in range(sc.frames):
        frame = json.loads(lines[t + 1])
        frame.update(
            type="frame",
            index=t,
            gt=[1.0, 2.0, 0.0, -5.0],
            modality="rgb" if sc.scheduled_modality(t) == "nir" else "nir",
            valid=sc.is_invalid(t),
        )
        lines[t + 1] = json.dumps(frame)
    old = tmp_path / "old.jsonl"
    old.write_text("\n".join(lines) + "\n")
    shutil.copyfile(frames_path(sequence_file), frames_path(old))
    runs = tmp_path / "clean.json", tmp_path / "old.json"
    for seq, run in zip((sequence_file, old), runs):
        assert main(["track", str(seq), "--out", str(run)]) == 0
    assert runs[0].read_bytes() == runs[1].read_bytes()


def _header_only(npy, frames):
    with open(npy, "rb") as fh:
        np.lib.format.read_magic(fh)
        np.lib.format.read_array_header_1_0(fh)
        header = fh.tell()
    npy.write_bytes(npy.read_bytes()[:header])


def _header_shape(shape):
    def write(npy, frames):
        with open(npy, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {"descr": "|u1", "fortran_order": False, "shape": shape})
            fh.write(frames.tobytes())

    return write


def _npz(npy, frames):
    with open(npy, "wb") as fh:  # a file handle: given a path, np.savez appends .npz
        np.savez(fh, frames=frames)


# Each function breaks the (frames, 64, 64, 3) uint8 stack beside a valid
# sequence file, given its path and its frames.
BAD_STORES = {
    "missing": lambda npy, frames: npy.unlink(),
    "empty": lambda npy, frames: npy.write_bytes(b""),
    "truncated": lambda npy, frames: npy.write_bytes(npy.read_bytes()[:-100]),
    "header_only": _header_only,
    "height_not_integer": _header_shape((30, 64.0, 64, 3)),
    "width_not_integer": _header_shape((30, 64, 64.0, 3)),
    "channels_not_integer": _header_shape((30, 64, 64, 3.0)),
    # More bytes than any address space: np.load fails to allocate, touching no memory.
    "shape_past_any_memory": _header_shape((10**12, 64, 64, 3)),
    "pickled_object_array": lambda npy, frames: np.save(
        npy, np.array([frames, None], dtype=object), allow_pickle=True
    ),
    "npz_archive": _npz,
    "dtype_int16": lambda npy, frames: np.save(npy, frames.astype(np.int16)),
    "frames_32x32": lambda npy, frames: np.save(npy, frames[:, :32, :32]),
    "one_channel": lambda npy, frames: np.save(npy, frames[..., :1]),
    "one_frame_too_few": lambda npy, frames: np.save(npy, frames[:-1]),
    "header_dict_unclosed": lambda npy, frames: npy.write_bytes(npy.read_bytes().replace(b"}", b" ", 1)),
}


@pytest.mark.parametrize("case", sorted(BAD_STORES))
def test_bad_frame_store_exits_2_naming_the_npy(tmp_path, sequence_file, case, capsys):
    npy = frames_path(sequence_file)
    BAD_STORES[case](npy, np.load(npy))
    out = tmp_path / "run.json"
    assert main(["track", str(sequence_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"xmtrack track: {npy}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


# Each function turns a valid track run into a malformed one.
BAD_TRACK_RUNS = {
    "pred_not_list": lambda p: {**p, "pred": 5},
    "gt_not_list": lambda p: {**p, "gt": 5},
    "tags_not_list": lambda p: {**p, "tags": 5},
    "tag_not_string": lambda p: {**p, "tags": [[1]] + p["tags"][1:]},
    "tags_a_string": lambda p: {**p, "tags": ["rgb"] + p["tags"][1:]},
    "negative_box_size": lambda p: {**p, "pred": [[1.0, 1.0, -5.0, 5.0]] + p["pred"][1:]},
    "coordinate_past_the_float_range": lambda p: {**p, "pred": [[10**400, 1.0, 5.0, 5.0]] + p["pred"][1:]},
    "coordinate_a_numeric_string": lambda p: {**p, "pred": [["9999", 1.0, 5.0, 5.0]] + p["pred"][1:]},
    "coordinate_true": lambda p: {**p, "gt": [[True, 1.0, 5.0, 5.0]] + p["gt"][1:]},
    "box_a_string_of_4_digits": lambda p: {**p, "pred": ["1234"] + p["pred"][1:]},
    "box_of_3_numbers": lambda p: {**p, "gt": [[1.0, 5.0, 5.0]] + p["gt"][1:]},
    "tags_an_empty_object": lambda p: {**p, "tags": {}},
    "tags_an_empty_string": lambda p: {**p, "tags": ""},
    "tags_an_empty_list": lambda p: {**p, "tags": []},
    "tags_one_frame_short": lambda p: {**p, "tags": p["tags"][:-1]},
    "tags_missing": lambda p: {k: v for k, v in p.items() if k != "tags"},
    "frame_tagged_all": lambda p: {**p, "tags": [["all"]] + p["tags"][1:]},
    "sequence_a_number": lambda p: {**p, "sequence": 5},
    "sequence_null": lambda p: {**p, "sequence": None},
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


@pytest.mark.parametrize("theta", [2, 2.0])
def test_inflation_at_the_float_maximum_cap_tracks_through_a_long_blackout(tmp_path, theta, capsys):
    # theta**k leaves the float range on the blackout's 1,024th frame, with the cap still above
    # it; an int theta gives exact ints there, which made the Q multipliers an object array.
    sc = Scenario(name="long-blackout", frames=1100, image_width=16, image_height=16, invalid_windows=[(5, 1100)])
    save_scenario(tmp_path / "scenario.json", sc)
    seq = tmp_path / "seq.jsonl"
    assert main(["simulate", str(tmp_path / "scenario.json"), "--out", str(seq)]) == 0
    config = tmp_path / "filter.json"
    config.write_text(json.dumps({"theta": theta, "cap_mult": sys.float_info.max, "q_diag": [1e-300] * 8}))
    assert main(["track", str(seq), "--out", str(tmp_path / "run.json"), "--config", str(config)]) == 0
    assert "Traceback" not in capsys.readouterr().err


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
    d = asdict(Scenario(name="radius", frames=10))
    d["switch_radius"] = -1
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    assert main(["simulate", str(path), "--out", str(tmp_path / "s.jsonl")]) == 2


def test_non_positive_scenario_size_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    for key in ("frame_width", "frame_height", "image_width", "image_height"):
        for value in (0, -64):
            d = asdict(Scenario(name="size", frames=10))
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
    "image_past_the_pixel_cap": ({"image_width": 10**30}, []),
    "frame_stack_past_the_byte_cap": ({"frames": 2**40, "velocity": [0.0, 0.0]}, []),
    "sigma_past_the_float_range": ({"sigma": 10**400}, []),
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


@pytest.mark.parametrize("command", ["simulate", "track"])
def test_scenario_that_is_not_a_json_object_exits_2_with_one_line(tmp_path, sequence_file, command, capsys):
    # The pairs of a valid scenario, as a JSON array and not an object.
    pairs = json.dumps(list(asdict(Scenario(name="pairs", frames=30, seed=7)).items()))
    out = tmp_path / "out.json"
    if command == "simulate":
        bad = tmp_path / "scenario.json"
        bad.write_text(pairs)
    else:
        lines = sequence_file.read_text().splitlines()
        lines[0] = '{"type": "header", "scenario": %s}' % pairs
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        shutil.copyfile(frames_path(sequence_file), frames_path(bad))
    capsys.readouterr()
    assert main([command, str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and str(bad) in err
    assert not out.exists()


def test_ablate_rejects_a_negative_seed_like_an_empty_suite(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["ablate", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()
    assert main(["gradcheck", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and not captured.out


NOT_UTF8 = b'{"name": "\xff\xfe"}\n'
TOO_DEEP = b"[" * 100_000 + b"\n"


def _file(content):
    """A case input: one file holding ``content``."""

    def build(tmp_path, sequence):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        return path

    return build


def _sequence_line(line, content):
    """A case input: a copy of the sequence, its frame stack beside it, with file line ``line`` replaced."""

    def build(tmp_path, sequence):
        lines = sequence.read_bytes().splitlines()
        lines[line - 1] = content.rstrip(b"\n")
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        shutil.copyfile(frames_path(sequence), frames_path(bad))
        return bad

    return build


# case -> (input builder, argv with {bad}/{seq}/{out} filled in, text the one stderr line holds)
SIMULATE, EVAL, TRACK = "simulate {bad} --out {out}", "eval {bad} --out {out}", "track {bad} --out {out}"
TRACK_CONFIG = "track {seq} --out {out} --config {bad}"
UNREADABLE_INPUTS = {
    "simulate_scenario_not_utf8": (_file(NOT_UTF8), SIMULATE, "{bad}:1: not UTF-8"),
    "eval_track_run_not_utf8": (_file(NOT_UTF8), EVAL, "{bad}:1: not UTF-8"),
    "track_sequence_not_utf8": (_file(NOT_UTF8), TRACK, "{bad}:1: not UTF-8"),
    "track_config_not_utf8": (_file(NOT_UTF8), TRACK_CONFIG, "{bad}:1: not UTF-8"),
    "track_frame_line_not_utf8": (_sequence_line(4, NOT_UTF8), TRACK, "{bad}:4: not UTF-8"),
    "simulate_scenario_too_deep": (_file(TOO_DEEP), SIMULATE, "{bad}: malformed JSON"),
    "eval_track_run_too_deep": (_file(TOO_DEEP), EVAL, "{bad}: malformed JSON"),
    "track_config_too_deep": (_file(TOO_DEEP), TRACK_CONFIG, "{bad}: malformed JSON"),
    "track_header_too_deep": (_sequence_line(1, TOO_DEEP), TRACK, "{bad}:1: malformed JSON"),
    "track_frame_line_too_deep": (_sequence_line(4, TOO_DEEP), TRACK, "{bad}:4: malformed JSON"),
    "track_frame_line_huge_integer": (
        _sequence_line(4, b'{"s": ' + b"9" * 5000 + b"}"),
        TRACK,
        "{bad}:4: malformed JSON",
    ),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_unreadable_input_exits_2_with_one_line(tmp_path, sequence_file, case, capsys):
    build, argv, want = UNREADABLE_INPUTS[case]
    names = {"bad": build(tmp_path, sequence_file), "seq": sequence_file, "out": tmp_path / "out.json"}
    capsys.readouterr()
    assert main(argv.format(**names).split()) == 2
    err = capsys.readouterr().err
    assert want.format(**names) in err and err.count("\n") == 1
    assert not names["out"].exists()


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
