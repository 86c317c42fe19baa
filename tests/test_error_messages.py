"""The exact stderr line `eval` and `track` print for a bad track run or frame line.

Each case edits one good file and pins the whole line the command prints,
so a faster loader must name the same box or ``file:line`` with the same
words.  Values that ``json.dumps`` cannot write (``1e999``, a 400-digit
integer) go in as raw JSON text, and so do Python's JSON extensions ``NaN``
and ``-Infinity``.
"""

import json
import shutil
import sys

import pytest

from xmtrack.cli import main
from xmtrack.io import frames_path, save_scenario
from xmtrack.sim import Scenario

BIG = "1" + "0" * 399  # a 400-digit integer: valid JSON, past the float range
JUST_PAST = str(int(sys.float_info.max) + 1)  # an integer past the range that float() rounds into it

# raw JSON text -> how the loaders print that value
VALUES = {
    "true": ("true", "bad {what} value True: not a number"),
    "numeric_string": ('"0.5"', "bad {what} value '0.5': not a number"),
    "float_past_the_range": ("1e999", "non-finite {what} value inf"),
    "integer_of_400_digits": (BIG, f"non-finite {{what}} value {BIG}"),
    "integer_just_past_the_range": (JUST_PAST, f"non-finite {{what}} value {JUST_PAST}"),
    "json_nan": ("NaN", "non-finite {what} value nan"),
    "json_negative_infinity": ("-Infinity", "non-finite {what} value -inf"),
}


@pytest.fixture()
def sequence_file(tmp_path):
    sc = Scenario(
        name="messages",
        frames=30,
        initial_box=(100.0, 256.0, 30.0, 30.0),
        modality_schedule=[(0, 15, "rgb"), (15, 30, "nir")],
        invalid_windows=[(12, 20)],
        seed=7,
    )
    save_scenario(tmp_path / "scenario.json", sc)
    out = tmp_path / "seq.jsonl"
    assert main(["simulate", str(tmp_path / "scenario.json"), "--out", str(out)]) == 0
    return out


@pytest.fixture()
def trackrun_payload(tmp_path, sequence_file):
    path = tmp_path / "good.json"
    assert main(["track", str(sequence_file), "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _raw(marker: str, text: str):
    """A JSON string of ``marker`` in dumped text, replaced by raw JSON ``text``."""
    return lambda dumped: dumped.replace(json.dumps(marker), text)


# ---------------------------------------------------------------------------
# eval: track-run files
# ---------------------------------------------------------------------------


def _set_box(key, index, box):
    def edit(p):
        p[key][index] = box

    return edit


def _set_value(key, index, raw):
    def edit(p):
        p[key][index][0] = "@value@"
        return _raw("@value@", raw)

    return edit


# case -> (edits of the payload, the message after "invalid track run: ")
BAD_TRACK_RUNS = {
    **{
        f"pred_value_{name}": ([_set_value("pred", 4, raw)], msg.format(what="box"))
        for name, (raw, msg) in VALUES.items()
    },
    "box_of_3_numbers": (
        [_set_box("pred", 4, [1.0, 5.0, 5.0])],
        "bad box value [1.0, 5.0, 5.0]: not a list of 4 numbers",
    ),
    "box_not_a_list": ([_set_box("pred", 4, 5)], "bad box value 5: not a list of 4 numbers"),
    "box_a_string": ([_set_box("pred", 4, "1234")], "bad box value '1234': not a list of 4 numbers"),
    "pred_not_a_list": ([lambda p: p.update(pred=5)], "'int' object is not iterable"),
    "pred_an_object": ([lambda p: p.update(pred={"a": [1.0, 1.0, 1.0, 1.0]})],
                       "bad box value 'a': not a list of 4 numbers"),
    "negative_w": (
        [_set_box("pred", 4, [1.0, 1.0, -5.0, 5.0])],
        "negative box dimensions in [1.0, 1.0, -5.0, 5.0]",
    ),
    "negative_h": (
        [_set_box("pred", 4, [1.0, 1.0, 5.0, -5.0])],
        "negative box dimensions in [1.0, 1.0, 5.0, -5.0]",
    ),
    "bad_gt_after_a_good_pred": (
        [_set_box("gt", 3, [1.0, 1.0, -0.5, 5.0])],
        "negative box dimensions in [1.0, 1.0, -0.5, 5.0]",
    ),
    "two_bad_boxes_name_the_first": (
        [_set_box("pred", 2, [1.0, 1.0, 5.0, -2.0]), _set_box("pred", 7, True)],
        "negative box dimensions in [1.0, 1.0, 5.0, -2.0]",
    ),
    "a_bad_pred_is_named_before_a_bad_gt": (
        [_set_box("gt", 0, [1.0]), _set_value("pred", 9, "true")],
        "bad box value True: not a number",
    ),
    "empty_pred_and_gt": ([lambda p: p.update(pred=[], gt=[], tags=[])], "TrackRun: empty run"),
    "gt_one_box_short": (
        [lambda p: p.update(gt=p["gt"][:-1])],
        "TrackRun: 30 predictions vs 29 ground truths",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_TRACK_RUNS))
def test_bad_track_run_prints_the_parent_line(tmp_path, trackrun_payload, case, capsys):
    edits, message = BAD_TRACK_RUNS[case]
    raws = [r for r in (edit(trackrun_payload) for edit in edits) if r is not None]
    text = json.dumps(trackrun_payload)
    for raw in raws:
        text = raw(text)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    capsys.readouterr()
    assert main(["eval", str(bad), "--out", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err == f"xmtrack eval: {bad}: invalid track run: {message}\n"
    assert not (tmp_path / "m.csv").exists()


# ---------------------------------------------------------------------------
# track: frame lines
# ---------------------------------------------------------------------------


def _observed_value(raw):
    def edit(f):
        f["observed"][0] = "@value@"
        return _raw("@value@", raw)

    return edit


def _s_value(raw):
    def edit(f):
        f["s"] = "@value@"
        return _raw("@value@", raw)

    return edit


def _line_text(text):
    """Replace the whole frame line with ``text``."""
    return lambda f: lambda dumped: text


# case -> ({file line: edit}, the line named, the message after "file:line: ")
BAD_FRAME_LINES = {
    **{
        f"observed_value_{name}": ({6: _observed_value(raw)}, 6, msg.format(what="box"))
        for name, (raw, msg) in VALUES.items()
    },
    **{
        f"s_{name}": ({6: _s_value(raw)}, 6, msg.format(what="confidence"))
        for name, (raw, msg) in VALUES.items()
    },
    "observed_of_3_numbers": (
        {6: lambda f: f.update(observed=[1.0, 5.0, 5.0])},
        6,
        "bad box value [1.0, 5.0, 5.0]: not a list of 4 numbers",
    ),
    "observed_not_a_list": (
        {6: lambda f: f.update(observed=5)},
        6,
        "bad box value 5: not a list of 4 numbers",
    ),
    "observed_negative_w": (
        {6: lambda f: f.update(observed=[1.0, 1.0, -5.0, 5.0])},
        6,
        "negative box dimensions in [1.0, 1.0, -5.0, 5.0]",
    ),
    "observed_negative_h": (
        {6: lambda f: f.update(observed=[1.0, 1.0, 5.0, -5.0])},
        6,
        "negative box dimensions in [1.0, 1.0, 5.0, -5.0]",
    ),
    "bad_observed_after_a_good_s": (
        {7: lambda f: f.update(s=0.25, observed=[1.0, 1.0, 5.0, -0.5])},
        7,
        "negative box dimensions in [1.0, 1.0, 5.0, -0.5]",
    ),
    "bad_s_is_named_before_a_bad_observed": (
        {7: lambda f: f.update(s=2.0, observed=[1.0, 1.0, 5.0, -0.5])},
        7,
        "confidence s=2.0 outside [0, 1]",
    ),
    "s_above_one": ({6: lambda f: f.update(s=1.5)}, 6, "confidence s=1.5 outside [0, 1]"),
    "s_below_zero": ({6: lambda f: f.update(s=-0.1)}, 6, "confidence s=-0.1 outside [0, 1]"),
    "s_missing": ({6: lambda f: f.__delitem__("s")}, 6, "frame record missing 's'"),
    "observed_missing": ({6: lambda f: f.__delitem__("observed")}, 6, "frame record missing 'observed'"),
    "line_a_list": ({6: _line_text("[0.5, [1, 2, 3, 4]]")}, 6, "expected a frame record"),
    "line_a_number": ({6: _line_text("5")}, 6, "expected a frame record"),
    "two_bad_lines_name_the_first": (
        {6: lambda f: f.update(observed=[1.0, 1.0, 5.0, -2.0]), 9: _s_value("true")},
        6,
        "negative box dimensions in [1.0, 1.0, 5.0, -2.0]",
    ),
    "bad_s_before_malformed_json": (
        {6: lambda f: f.update(s=1.5), 9: _line_text('{"observed": [1, 2, 3, 4], "s": }')},
        6,
        "confidence s=1.5 outside [0, 1]",
    ),
    "malformed_json_before_bad_s": (
        {6: _line_text('{"observed": [1, 2, 3, 4], "s": }'), 9: lambda f: f.update(s=1.5)},
        6,
        "malformed JSON: Expecting value: line 1 column 33 (char 32)",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_FRAME_LINES))
def test_bad_frame_line_prints_the_parent_line(tmp_path, sequence_file, case, capsys):
    edits, named, message = BAD_FRAME_LINES[case]
    lines = sequence_file.read_text().splitlines()
    for lineno, edit in edits.items():
        frame = json.loads(lines[lineno - 1])
        raw = edit(frame)
        text = json.dumps(frame)
        lines[lineno - 1] = raw(text) if raw is not None else text
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    shutil.copyfile(frames_path(sequence_file), frames_path(bad))
    out = tmp_path / "run.json"
    capsys.readouterr()
    assert main(["track", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"xmtrack track: {bad}:{named}: {message}\n"
    assert not out.exists()
