"""Seeded fuzzing of every input file: a corrupted input exits 0 or 2, never a traceback.

Each case takes one valid file (scenario, sequence JSONL, frame stack,
track run or config), corrupts it one of three ways (byte flips, a
truncation, or one JSON field deleted or retyped) and runs the command that
reads it.  A CLI run must return 0 or 2, write at most one stderr line and
raise nothing, numpy warnings included.
"""

import json
import shutil
import warnings

import numpy as np
import pytest

from xmtrack.cli import main
from xmtrack.io import frames_path, save_scenario
from xmtrack.sim import Scenario

CASES_PER_FILE = 100

# What a retyped field becomes: every JSON type, and numbers at the edges.
RETYPES = [
    None, True, False, "", "x", "rgb", [], {}, [1.0], [[1, 2]], {"a": 1},
    0, -1, 1, 0.5, -0.5, 2.5, 1e308, -1e308, 10**30, -(10**30), 10**400, float("nan"), float("inf"),
]


def flip_bytes(data: bytes, rng) -> bytes:
    out = bytearray(data)
    for at in rng.integers(0, len(out), size=rng.integers(1, 5)):
        out[at] = int(rng.integers(0, 256))
    return bytes(out)


def truncate(data: bytes, rng) -> bytes:
    return data[: int(rng.integers(0, len(data)))]


def edit_field(obj, rng):
    """``obj`` with one randomly chosen dict entry or list element deleted or retyped."""
    containers = []
    stack = [obj]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)) and node:
            containers.append(node)
            stack.extend(node.values() if isinstance(node, dict) else node)
    node = containers[int(rng.integers(0, len(containers)))]
    at = int(rng.integers(0, len(node)))
    key = list(node)[at] if isinstance(node, dict) else at
    if rng.random() < 0.3:
        del node[key]
    else:
        node[key] = RETYPES[int(rng.integers(0, len(RETYPES)))]
    return obj


def edit_json(data: bytes, rng) -> bytes:
    return json.dumps(edit_field(json.loads(data), rng)).encode()


def edit_jsonl(data: bytes, rng) -> bytes:
    lines = data.splitlines()
    at = int(rng.integers(0, len(lines)))
    lines[at] = edit_json(lines[at], rng)
    return b"\n".join(lines) + b"\n"


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file of each kind, by name, and the paths they live at."""
    root = tmp_path_factory.mktemp("valid")
    sc = Scenario(
        name="fuzz",
        frames=8,
        image_width=24,
        image_height=16,
        modality_schedule=[(0, 4, "rgb"), (4, 8, "nir")],
        invalid_windows=[(2, 4)],
        seed=5,
    )
    names = ("scenario.json", "seq.jsonl", "run.json", "config.json")
    files = {name: root / name for name in names}
    save_scenario(files["scenario.json"], sc)
    assert main(["simulate", str(files["scenario.json"]), "--out", str(files["seq.jsonl"])]) == 0
    assert main(["track", str(files["seq.jsonl"]), "--out", str(files["run.json"])]) == 0
    config = {"q_diag": [0.2] * 8, "theta": 2.0, "motion": "ct", "turn_rate": 0.01}
    files["config.json"].write_text(json.dumps(config))
    files["seq.jsonl.npy"] = frames_path(files["seq.jsonl"])
    return files


# file -> (the ways it is corrupted, the argv that reads it; {x} is the copy of file x)
CLI_TARGETS = {
    "scenario.json": ((flip_bytes, truncate, edit_json), "simulate {scenario.json} --out {out.jsonl}"),
    "seq.jsonl": ((flip_bytes, truncate, edit_jsonl), "track {seq.jsonl} --out {out.json}"),
    "seq.jsonl.npy": ((flip_bytes, truncate), "track {seq.jsonl} --out {out.json}"),
    "run.json": ((flip_bytes, truncate, edit_json), "eval {run.json} --out {out}"),
    "config.json": (
        (flip_bytes, truncate, edit_json),
        "track {seq.jsonl} --out {out.json} --config {config.json}",
    ),
}


@pytest.mark.parametrize("target", sorted(CLI_TARGETS))
def test_corrupted_input_exits_0_or_2_with_at_most_one_line(tmp_path, valid, target, capsys):
    corruptions, argv = CLI_TARGETS[target]
    rng = np.random.default_rng(sorted(CLI_TARGETS).index(target))
    for case in range(CASES_PER_FILE):
        work = tmp_path / str(case)
        work.mkdir()
        names = {name: work / name for name in valid}
        names.update({name: work / name for name in ("out.jsonl", "out.json", "out")})
        for name, path in valid.items():
            shutil.copyfile(path, names[name])
        corrupt = corruptions[case % len(corruptions)]
        names[target].write_bytes(corrupt(valid[target].read_bytes(), rng))
        args = [names.get(arg.strip("{}"), arg) for arg in argv.split()]
        what = f"{target} case {case} ({corrupt.__name__})"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rc = main([str(a) for a in args])
            except Exception as exc:  # noqa: BLE001 - any escape is the failure under test
                pytest.fail(f"{what}: {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        assert rc in (0, 2), f"{what}: exit {rc}: {err}"
        assert err.count("\n") == (rc == 2) and "Traceback" not in err, f"{what}: {err}"

