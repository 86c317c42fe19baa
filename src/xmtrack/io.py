"""File formats: scenarios, sequences, track runs, filter configs.

Everything is line-oriented JSON (diff-friendly, no timestamps, stable key
order) except a sequence's pixels: its ``(T, H, W, 3)`` uint8 frame stack
``Sequence.frames`` is written as is to one ``.npy`` array (numpy's own
format) beside the sequence's JSONL, and loading it back gives that stack.
A sequence keeps only what its scenario cannot reproduce: the header's
scenario scripts the modality schedule, the invalid windows and the
ground-truth path, and each frame line holds the stub tracker's observed box
and confidence.  Sequences are written from and read into their columns
(``Sequence.gt``, ``observed`` and ``s``), with no per-frame object; the
per-frame ``Sequence.records`` view is built only if a caller reads it.  All
writers are byte-deterministic given identical inputs.
"""

from __future__ import annotations

import json
import math
import os
import tokenize
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .ctp import BBox, MotionKind, SessionConfig
from .metrics import TrackRun
from .sim import Scenario, Sequence
from .state_switch import FRAME_CHANNELS

TRACKRUN_FORMAT = "xmtrack-trackrun-v1"

CONFIG_DIR_ENV = "XMTRACK_CONFIG_DIR"


class DataError(Exception):
    """Malformed or inconsistent input data (CLI exit code 2)."""


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_text(path: str | Path) -> str:
    """The file as UTF-8 text; a missing file or bytes that are not UTF-8 are a DataError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise DataError(f"file not found: {path}") from exc
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise DataError(f"{path}:{line}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _parse_json(text: str, where):
    """``json.loads``; malformed JSON, an over-long integer or too deep nesting is a DataError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{where}: malformed JSON: {exc}") from exc


def _load_json(path: str | Path):
    return _parse_json(_read_text(path), path)


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------


def save_scenario(path: str | Path, sc: Scenario):
    Path(path).write_text(_dump(asdict(sc)) + "\n", encoding="utf-8")


def load_scenario(path: str | Path) -> Scenario:
    try:
        return Scenario(**_load_json(path))
    except (TypeError, ValueError, KeyError) as exc:
        raise DataError(f"{path}: invalid scenario: {exc}") from exc


# ---------------------------------------------------------------------------
# sequence (JSON lines: header record then one record per frame)
# ---------------------------------------------------------------------------


def _box_list(b: BBox) -> list[float]:
    return [b.cx, b.cy, b.w, b.h]


def _finite(v, what: str) -> float:
    """A JSON number finite as a float: an int or a float, and a bool is neither."""
    if type(v) not in (int, float):
        raise DataError(f"bad {what} value {v!r}: not a number")
    try:
        x = float(v)
    except OverflowError:  # an int past the float range
        x = math.inf
    if not math.isfinite(x):
        raise DataError(f"non-finite {what} value {v!r}")
    return x


def _box_values(v) -> list[float]:
    """``[cx, cy, w, h]`` from a JSON list of 4 finite numbers with w and h not negative."""
    if not (isinstance(v, list) and len(v) == 4):
        raise DataError(f"bad box value {v!r}: not a list of 4 numbers")
    box = [_finite(x, "box") for x in v]
    if box[2] < 0 or box[3] < 0:
        raise DataError(f"negative box dimensions in {v!r}")
    return box


def frames_path(path: str | Path) -> Path:
    """The ``.npy`` frame stack beside a sequence file: ``seq.jsonl`` -> ``seq.jsonl.npy``."""
    path = Path(path)
    return path.with_name(path.name + ".npy")


def save_sequence(path: str | Path, seq: Sequence):
    """Write a sequence: the scenario and observations as JSONL, pixels as one ``.npy``.

    The frame stack ``seq.frames`` goes to ``frames_path(path)`` as one
    C-ordered ``(T, H, W, 3)`` uint8 array in numpy's own format; the JSONL
    holds the header and one ``{"observed": [cx, cy, w, h], "s": s}`` line
    per frame.
    """
    np.save(frames_path(path), seq.frames)
    lines = [_dump({"type": "header", "scenario": asdict(seq.scenario)})]
    lines += [
        _dump({"observed": observed, "s": s})
        for observed, s in zip(seq.observed.tolist(), seq.s.tolist())
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_frames(path: Path, scenario: Scenario) -> np.ndarray:
    """The sequence's ``(T, H, W, 3)`` uint8 frame stack, checked against its scenario."""
    npy = frames_path(path)
    try:
        frames = np.load(npy, allow_pickle=False)
    # MemoryError: a header claiming vast data; SyntaxError, TokenError: a garbled header.
    except (OSError, ValueError, EOFError, MemoryError, SyntaxError, tokenize.TokenError) as exc:
        raise DataError(f"{npy}: unreadable frame stack: {exc}") from exc
    if not isinstance(frames, np.ndarray):  # an .npz archive
        frames.close()
        raise DataError(f"{npy}: an .npz archive, not one .npy array")
    want = (scenario.frames, scenario.image_height, scenario.image_width, FRAME_CHANNELS)
    if frames.dtype != np.uint8 or frames.shape != want:
        raise DataError(
            f"{npy}: frames are {frames.dtype} {frames.shape}, the scenario's are uint8 {want}"
        )
    return frames


def _frame_values(d) -> tuple[list[float], float]:
    """A frame line's observed box and confidence."""
    if not isinstance(d, dict):
        raise DataError("expected a frame record")
    s = _finite(d["s"], "confidence")
    if not 0.0 <= s <= 1.0:
        raise DataError(f"confidence s={s} outside [0, 1]")
    return _box_values(d["observed"]), s


def load_sequence(path: str | Path) -> Sequence:
    """Read a sequence file and its frame stack; bad input is a DataError.

    The JSONL must hold one frame line per scenario frame, and the
    ``.npy`` beside it (``frames_path``) one uint8 array of shape
    ``(frames, image_height, image_width, 3)`` from the header's scenario.
    The lines fill the ``observed`` and ``s`` columns, that array is
    ``frames``, and ``gt`` is the scenario's ``gt_path()``; no per-frame
    object is built (``Sequence.records`` builds its view when read).  A
    malformed frame line names file:line: ``observed`` must be a list of 4
    finite numbers with w and h not negative, and the confidence ``s`` a
    number in [0, 1].  Other keys on a line are ignored.
    """
    path = Path(path)
    lines = _read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty sequence file")
    header = _parse_json(lines[0], f"{path}:1")
    if not isinstance(header, dict) or header.get("type") != "header" or "scenario" not in header:
        raise DataError(f"{path}: first line is not a sequence header")
    try:
        scenario = Scenario(**header["scenario"])
    except (TypeError, ValueError, KeyError) as exc:
        raise DataError(f"{path}: invalid scenario in header: {exc}") from exc

    body = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line.strip()]
    if len(body) != scenario.frames:
        raise DataError(f"{path}: header says {scenario.frames} frames, found {len(body)}")
    frames = _load_frames(path, scenario)
    observed, s = [], []
    for lineno, line in body:
        d = _parse_json(line, f"{path}:{lineno}")
        try:
            box, conf = _frame_values(d)
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: frame record missing {exc}") from exc
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        observed.append(box)
        s.append(conf)
    return Sequence(scenario, frames, scenario.gt_path(), np.array(observed), np.array(s))


# ---------------------------------------------------------------------------
# track runs
# ---------------------------------------------------------------------------


def save_trackrun(path: str | Path, sequence_name: str, run: TrackRun):
    payload = {
        "format": TRACKRUN_FORMAT,
        "sequence": sequence_name,
        "pred": [_box_list(b) for b in run.pred],
        "gt": [_box_list(b) for b in run.gt],
        "tags": run.tags,
    }
    Path(path).write_text(_dump(payload) + "\n", encoding="utf-8")


def load_trackrun(path: str | Path) -> tuple[str, TrackRun]:
    """A track-run file's sequence name and run; a missing key or a bad value is a DataError."""
    payload = _load_json(path)
    if not isinstance(payload, dict) or payload.get("format") != TRACKRUN_FORMAT:
        raise DataError(f"{path}: not a {TRACKRUN_FORMAT} file")
    try:
        pred, gt = ([BBox(*_box_values(b)) for b in payload[k]] for k in ("pred", "gt"))
        name = payload["sequence"]
        if not isinstance(name, str):
            raise DataError(f"sequence name {name!r} is not a string")
        run = TrackRun(pred=pred, gt=gt, tags=payload["tags"])
    except (DataError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: invalid track run: {exc}") from exc
    return name, run


# ---------------------------------------------------------------------------
# filter config files
# ---------------------------------------------------------------------------


def resolve_config_path(name: str | Path) -> Path:
    """Literal path if it exists, else relative to $XMTRACK_CONFIG_DIR."""
    p = Path(name)
    if p.exists():
        return p
    env_dir = os.environ.get(CONFIG_DIR_ENV)
    if env_dir:
        candidate = Path(env_dir) / p
        if candidate.exists():
            return candidate
    raise DataError(f"config file not found: {name}")


def load_session_config(path: str | Path, base: SessionConfig | None = None) -> SessionConfig:
    """Overlay the keys a config file sets onto ``base`` (default: ``SessionConfig()``).

    Keys are the ``SessionConfig`` fields, with ``motion`` the motion kind
    (``"cv"``/``"ct"``), plus ``turn_rate``; the two overlay the base motion
    model separately.  Unknown keys and out-of-range values are data errors.
    """
    d = _load_json(resolve_config_path(path))
    if not isinstance(d, dict):
        raise DataError(f"{path}: session config must be a JSON object")
    unknown = sorted(set(d) - {f.name for f in fields(SessionConfig)} - {"turn_rate"})
    if unknown:
        raise DataError(f"{path}: unknown session config key(s) {unknown}")
    base = base or SessionConfig()
    motion = base.motion
    overlay = {k: v for k, v in d.items() if k not in ("motion", "turn_rate")}
    try:
        if "motion" in d:
            motion = replace(motion, kind=MotionKind(d["motion"]))
        if "turn_rate" in d:
            motion = replace(motion, turn_rate=d["turn_rate"])
        return replace(base, motion=motion, **overlay)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: invalid session config: {exc}") from exc
