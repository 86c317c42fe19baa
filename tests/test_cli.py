"""Command-line surface: exit codes, determinism, end-to-end pipeline."""

import json
import re
import shutil
import sys
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
import schedule_oracle

from xmtrack.cli import main
from xmtrack import ctp
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


def test_track_builds_only_the_initial_box_and_eval_no_box(tmp_path, monkeypatch):
    # Sequences and track runs move as columns: a BBox per frame would show here.
    sc = Scenario(
        name="count",
        frames=60,
        modality_schedule=[(0, 30, "rgb"), (30, 60, "nir")],
        invalid_windows=[(20, 30)],
        seed=3,
    )
    save_scenario(tmp_path / "scenario.json", sc)
    assert main(["simulate", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "seq.jsonl")]) == 0
    built = []
    init = ctp.BBox.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ctp.BBox, "__init__", counting_init)
    counts = {}
    for argv in (
        ["track", tmp_path / "seq.jsonl", "--out", tmp_path / "run.json"],
        ["eval", tmp_path / "run.json", "--out", tmp_path / "metrics"],
    ):
        built.clear()
        assert main([str(a) for a in argv]) == 0
        counts[argv[0]] = len(built)
    assert counts == {"track": 1, "eval": 0}  # track's one: run_filters' initial box


def test_track_rerun_with_same_seed_is_byte_identical(tmp_path, sequence_file):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        rc = main(
            ["track", str(sequence_file), "--out", str(out), "--motion", "ctp"]
        )
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def _simulate(scenario, out) -> tuple[bytes, bytes]:
    assert main(["simulate", str(scenario), "--out", str(out)]) == 0
    return out.read_bytes(), frames_path(out).read_bytes()


def _shorter(tmp_path, scenario_file) -> Path:
    """The scenario cut to 10 frames, with its band switch and blackout kept."""
    cut = replace(load_scenario(scenario_file), frames=10, modality_schedule=[(0, 5, "rgb"), (5, 10, "nir")],
                  invalid_windows=[(3, 6)])
    save_scenario(tmp_path / "short.json", cut)
    return tmp_path / "short.json"


def test_simulate_rerun_is_byte_identical(tmp_path, scenario_file):
    first = _simulate(scenario_file, tmp_path / "s1.jsonl")
    out = tmp_path / "s2.jsonl"
    assert _simulate(scenario_file, out) == first
    assert _simulate(scenario_file, out) == first  # written over the run before


def test_a_shorter_stack_over_a_longer_one_leaves_no_stale_tail(tmp_path, scenario_file):
    short = _shorter(tmp_path, scenario_file)
    want = _simulate(short, tmp_path / "fresh.jsonl")
    out = tmp_path / "seq.jsonl"
    _simulate(scenario_file, out)
    assert _simulate(short, out) == want
    assert np.load(frames_path(out)).shape[0] == 10


def test_simulate_writes_through_a_symlinked_stack(tmp_path, scenario_file):
    short = _shorter(tmp_path, scenario_file)
    want = _simulate(short, tmp_path / "fresh.jsonl")[1]
    out = tmp_path / "seq.jsonl"
    old = _simulate(scenario_file, out)[1]
    target = tmp_path / "store" / "frames.npy"
    target.parent.mkdir()
    target.write_bytes(old)
    frames_path(out).unlink()
    frames_path(out).symlink_to(target)
    _simulate(short, out)
    assert frames_path(out).is_symlink() and frames_path(out).readlink() == target
    assert target.read_bytes() == want


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


def test_readme_python_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("MetricRow(pr=")


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
    def track(config=None):
        extra = ()
        if config is not None:
            (tmp_path / "filter.json").write_text(json.dumps(config))
            extra = ("--config", tmp_path / "filter.json")
        return _track(turning_sequence, tmp_path / "run.json", "--motion", motion, *extra)

    base, theta = track(), track({"theta": 3.0})
    assert theta != base
    assert track({"epsilon": 0.5}) not in (base, theta)
    # cap_mult caps the inflation, so it acts once theta > 1 and not before.
    assert track({"cap_mult": 2.0}) == base
    assert track({"cap_mult": 2.0, "theta": 3.0}) != theta


@pytest.mark.parametrize("key", ["use_reliability", "inflate_on_invalid"])
def test_removed_filter_switch_exits_2_naming_the_key(tmp_path, sequence_file, key, capsys):
    cfg = tmp_path / "filter.json"
    cfg.write_text(json.dumps({key: False}))
    out = tmp_path / "run.json"
    assert main(["track", str(sequence_file), "--out", str(out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert key in err and err.count("\n") == 1
    assert not out.exists()


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


def test_config_path_is_read_as_given_and_not_searched(tmp_path, sequence_file, monkeypatch, capsys):
    # A directory named by XMTRACK_CONFIG_DIR, once a second place to look, holds the file.
    elsewhere = tmp_path / "configs"
    elsewhere.mkdir()
    (elsewhere / "filter.json").write_text('{"theta": 3.0}')
    monkeypatch.setenv("XMTRACK_CONFIG_DIR", str(elsewhere))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run.json"
    assert main(["track", str(sequence_file), "--out", str(out), "--config", "filter.json"]) == 2
    assert "file not found: filter.json" in capsys.readouterr().err
    assert not out.exists()


def test_config_diagonal_of_big_integers_runs(tmp_path, sequence_file):
    cfg = tmp_path / "filter.json"
    cfg.write_text(json.dumps({"r_diag": [10**30] * 4}))  # integers past int64 made an object array
    assert main(["track", str(sequence_file), "--out", str(tmp_path / "run.json"), "--config", str(cfg)]) == 0


# The removed flags, whose values the scenario and --config files set, and a
# proper prefix of each remaining option; argv with {scenario}/{seq}/{cfg}/{out} filled in.
REJECTED_ARGV = {
    "simulate_seed": "simulate {scenario} --out {out} --seed 5",
    "simulate_sigma": "simulate {scenario} --out {out} --sigma 0",
    "track_seed": "track {seq} --out {out} --seed 5",
    "track_rho": "track {seq} --out {out} --rho 0.5",
    "track_epsilon": "track {seq} --out {out} --epsilon 0.5",
    "track_theta": "track {seq} --out {out} --theta 3",
    "out_prefix": "simulate {scenario} --o {out}",
    "motion_prefix": "track {seq} --out {out} --mot kf",
    "config_prefix": "track {seq} --out {out} --conf {cfg}",
    "suites_prefix": "ablate --su 1 --out {out}",
    "inject_bug_prefix": "gradcheck --inj",
}


@pytest.mark.parametrize("case", sorted(REJECTED_ARGV))
def test_removed_flag_or_abbreviation_exits_1(tmp_path, scenario_file, sequence_file, case, capsys):
    names = {"scenario": scenario_file, "seq": sequence_file, "cfg": tmp_path / "filter.json"}
    names["cfg"].write_text("{}")
    names["out"] = tmp_path / "out.json"
    capsys.readouterr()
    assert main(REJECTED_ARGV[case].format(**names).split()) == 1
    assert not names["out"].exists()
    assert not capsys.readouterr().out


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
            modality="rgb" if schedule_oracle.scheduled_modality(sc, t) == "nir" else "nir",
            valid=schedule_oracle.is_invalid(sc, t),
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


def _data_offset(npy) -> int:
    with open(npy, "rb") as fh:
        np.lib.format.read_magic(fh)
        np.lib.format.read_array_header_1_0(fh)
        return fh.tell()


def _truncated_mid_store(npy, frames):
    """The data cut inside frame 5, in the first chunk."""
    npy.write_bytes(npy.read_bytes()[: _data_offset(npy) + 5 * frames[0].nbytes + 100])


def _fortran_order(npy, frames):
    """The right dtype and shape, in Fortran order: np.load reads it, a chunked reader cannot."""
    with open(npy, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {"descr": "|u1", "fortran_order": True, "shape": frames.shape})
        fh.write(frames.tobytes(order="F"))


def _npy_version_2(npy, frames):
    """The right array in .npy format 2.0, which np.save writes only for headers past 64 KiB."""
    with open(npy, "wb") as fh:
        np.lib.format.write_array(fh, frames, version=(2, 0))


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
    "truncated_mid_store": _truncated_mid_store,
    "fortran_order": _fortran_order,
    "npy_version_2": _npy_version_2,
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


def test_a_store_with_trailing_bytes_tracks_like_the_clean_one(tmp_path, sequence_file):
    # np.load reads a .npy with bytes past its data; the chunked reader ignores them too.
    runs = tmp_path / "clean.json", tmp_path / "trailing.json"
    assert main(["track", str(sequence_file), "--out", str(runs[0])]) == 0
    with open(frames_path(sequence_file), "ab") as fh:
        fh.write(b"\xff" * 5000)
    assert main(["track", str(sequence_file), "--out", str(runs[1])]) == 0
    assert runs[0].read_bytes() == runs[1].read_bytes()


def test_a_fortran_ordered_store_is_named_as_such(tmp_path, sequence_file, capsys):
    npy = frames_path(sequence_file)
    _fortran_order(npy, np.load(npy))
    assert main(["track", str(sequence_file), "--out", str(tmp_path / "run.json")]) == 2
    assert capsys.readouterr().err == (
        f"xmtrack track: {npy}: frames are Fortran-ordered uint8 (30, 64, 64, 3), "
        "the scenario's are C-ordered uint8 (30, 64, 64, 3)\n"
    )


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
    "sequence_missing": lambda p: {k: v for k, v in p.items() if k != "sequence"},
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


# Each entry edits a valid scenario file; every one is rejected before
# anything is rendered.
BAD_SCENARIOS = {
    "seed_negative": {"seed": -5},
    "seed_not_integer": {"seed": 1.5},
    "turn_rate_infinite": {"turn_rate": float("inf")},
    "velocity_overflows_the_path": {"velocity": [1e308, 1e308]},
    "velocity_one_entry": {"velocity": [4.0]},
    "frames_not_integer": {"frames": 30.5},
    "initial_box_three_entries": {"initial_box": [100.0, 256.0, 30.0]},
    "initial_box_zero_width": {"initial_box": [100.0, 256.0, 0.0, 30.0]},
    "sigma_nan": {"sigma": float("nan")},
    "sigma_negative": {"sigma": -1},
    "switch_noise_boost_nan": {"switch_noise_boost": float("nan")},
    "window_bound_not_integer": {"invalid_windows": [[12.5, 20]]},
    "image_past_the_pixel_cap": {"image_width": 10**30},
    "frame_stack_past_the_byte_cap": {"frames": 2**40, "velocity": [0.0, 0.0]},
    "sigma_past_the_float_range": {"sigma": 10**400},
    "frame_width_past_the_float_range": {"frame_width": 10**400},
    "frame_height_past_the_float_range": {"frame_height": 10**400},
    "frame_width_past_max_coord": {"frame_width": 10**310},
}


@pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
def test_bad_scenario_exits_2_with_one_line(tmp_path, scenario_file, case, capsys):
    scenario = json.loads(scenario_file.read_text())
    scenario.update(BAD_SCENARIOS[case])
    scenario_file.write_text(json.dumps(scenario))
    out = tmp_path / "seq.jsonl"
    assert main(["simulate", str(scenario_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name, n", [("initial_box", 4), ("velocity", 2)])
@pytest.mark.parametrize("value", [5, None, 3.5])
def test_a_box_or_velocity_that_is_not_a_list_exits_2_naming_it(tmp_path, scenario_file, name, n, value, capsys):
    scenario = json.loads(scenario_file.read_text())
    scenario[name] = value
    scenario_file.write_text(json.dumps(scenario))
    out = tmp_path / "seq.jsonl"
    assert main(["simulate", str(scenario_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"xmtrack simulate: {scenario_file}: invalid scenario: Scenario: {name} needs {n} finite numbers\n"
    )
    assert not out.exists()


# A scenario file's malformed window, and the error that names it on stderr.
MALFORMED_WINDOW_FILES = {
    "schedule_entry_a_dict": (
        {"modality_schedule": [{"a": 1}]},
        "modality_schedule window {'a': 1} is not [start, end, band] with integer bounds",
    ),
    "schedule_entry_null": (
        {"modality_schedule": [None]},
        "modality_schedule window None is not [start, end, band] with integer bounds",
    ),
    "invalid_window_of_three": (
        {"invalid_windows": [[0, 5, 7]]},
        "invalid_windows window [0, 5, 7] is not [start, end] with integer bounds",
    ),
    "schedule_not_a_list": (
        {"modality_schedule": 5},
        "modality_schedule window 5 is not [start, end, band] with integer bounds",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_WINDOW_FILES))
def test_malformed_scenario_window_exits_2_naming_the_window(tmp_path, scenario_file, case, capsys):
    edit, error = MALFORMED_WINDOW_FILES[case]
    scenario = json.loads(scenario_file.read_text())
    scenario.update(edit)
    scenario_file.write_text(json.dumps(scenario))
    assert main(["simulate", str(scenario_file), "--out", str(tmp_path / "seq.jsonl")]) == 2
    assert capsys.readouterr().err == f"xmtrack simulate: {scenario_file}: invalid scenario: Scenario: {error}\n"


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


@pytest.mark.parametrize("field", ["frame_width", "frame_height"])
def test_sequence_header_with_a_frame_size_past_the_float_range_exits_2_with_one_line(
    tmp_path, sequence_file, field, capsys
):
    lines = sequence_file.read_text().splitlines()
    header = json.loads(lines[0])
    header["scenario"][field] = 10**310
    lines[0] = json.dumps(header)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    shutil.copyfile(frames_path(sequence_file), frames_path(bad))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(["track", str(bad), "--out", str(out)]) == 2
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
