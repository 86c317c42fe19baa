"""File formats: scenarios, sequences, track runs, filter configs.

Everything is line-oriented JSON (diff-friendly, no timestamps, stable key
order) except a sequence's pixels, which go to one ``.npy`` array (numpy's
own format) beside the sequence's JSONL.  All writers are byte-deterministic
given identical inputs.
"""

from __future__ import annotations

import json
import math
import os
import tokenize
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .ctp import BBox, MotionKind, SessionConfig
from .metrics import TrackRun
from .sim import MODALITIES, FrameRecord, Scenario, Sequence, scenario_from_dict, scenario_to_dict
from .state_switch import Image

TRACKRUN_FORMAT = "xmtrack-trackrun-v1"

CONFIG_DIR_ENV = "XMTRACK_CONFIG_DIR"

# `simulate` renders, and `track`'s built-in switch weights classify,
# 3-channel frames.
FRAME_CHANNELS = 3


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
    Path(path).write_text(_dump(scenario_to_dict(sc)) + "\n", encoding="utf-8")


def load_scenario(path: str | Path) -> Scenario:
    d = _load_json(path)
    try:
        return scenario_from_dict(d)
    except (TypeError, ValueError, KeyError) as exc:
        raise DataError(f"{path}: invalid scenario: {exc}") from exc


# ---------------------------------------------------------------------------
# sequence (JSON lines: header record then one record per frame)
# ---------------------------------------------------------------------------


def _box_list(b: BBox) -> list[float]:
    return [b.cx, b.cy, b.w, b.h]


def _finite(v, what: str) -> float:
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past the float range
        raise DataError(f"bad {what} value {v!r}") from exc
    if not math.isfinite(x):
        raise DataError(f"non-finite {what} value {v!r}")
    return x


def _box_from(v) -> BBox:
    try:
        cx, cy, w, h = (_finite(x, "box") for x in v)
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad box value {v!r}") from exc
    return BBox(cx=cx, cy=cy, w=w, h=h)


def frames_path(path: str | Path) -> Path:
    """The ``.npy`` frame stack beside a sequence file: ``seq.jsonl`` -> ``seq.jsonl.npy``."""
    path = Path(path)
    return path.with_name(path.name + ".npy")


def save_sequence(path: str | Path, seq: Sequence):
    """Write a sequence: per-frame metadata as JSONL, pixels as one ``.npy``.

    The pixels of every frame go to ``frames_path(path)`` as one C-ordered
    ``(T, H, W, 3)`` uint8 array in numpy's own format; the JSONL holds the
    header and one metadata record per frame.
    """
    frames = np.stack(
        [r.image.pixels.reshape(r.image.height, r.image.width, r.image.channels) for r in seq.records]
    )
    np.save(frames_path(path), frames)
    lines = [_dump({"type": "header", "scenario": scenario_to_dict(seq.scenario)})]
    for rec in seq.records:
        lines.append(
            _dump(
                {
                    "type": "frame",
                    "index": rec.index,
                    "gt": _box_list(rec.gt),
                    "modality": rec.modality,
                    "valid": rec.valid,
                    "observed": _box_list(rec.observed),
                    "s": rec.s,
                }
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _integer(v, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise DataError(f"{what} {v!r} is not an integer")
    return v


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


def _frame_record(d, image: Image, index: int) -> FrameRecord:
    """Frame ``index`` of a sequence, its pixels ``image``."""
    if not isinstance(d, dict) or d.get("type") != "frame":
        raise DataError("expected a frame record")
    if _integer(d["index"], "frame index") != index:
        raise DataError(f"frame index {d['index']}, expected {index} (indices run 0..T-1 in order)")
    if d["modality"] not in MODALITIES:
        raise DataError(f"modality {d['modality']!r} is not one of {', '.join(MODALITIES)}")
    if not isinstance(d["valid"], bool):
        raise DataError(f"valid {d['valid']!r} is not true or false")
    gt = _box_from(d["gt"])
    if gt.w < 0 or gt.h < 0:
        raise DataError(f"gt box has negative size w={gt.w}, h={gt.h}")
    if index == 0 and not (gt.w > 0 and gt.h > 0):
        raise DataError(f"frame 0 gt box starts the track, its size must be positive: w={gt.w}, h={gt.h}")
    s = _finite(d["s"], "confidence")
    if not 0.0 <= s <= 1.0:
        raise DataError(f"confidence s={s} outside [0, 1]")
    return FrameRecord(
        index=index,
        image=image,
        gt=gt,
        modality=d["modality"],
        valid=d["valid"],
        observed=_box_from(d["observed"]),
        s=s,
    )


def load_sequence(path: str | Path) -> Sequence:
    """Read a sequence file and its frame stack; bad input is a DataError.

    The JSONL must hold one frame record per scenario frame, and the
    ``.npy`` beside it (``frames_path``) one uint8 array of shape
    ``(frames, image_height, image_width, 3)`` from the header's scenario;
    each frame's image is a view of that array.  A malformed or
    inconsistent frame record names file:line: frame indices must run
    0..T-1 in file order, modalities be rgb or nir, ``valid`` a boolean,
    every confidence ``s`` in [0, 1], and every ``gt`` size non-negative
    (positive on frame 0, where the track starts).
    """
    path = Path(path)
    lines = _read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty sequence file")
    header = _parse_json(lines[0], f"{path}:1")
    if not isinstance(header, dict) or header.get("type") != "header" or "scenario" not in header:
        raise DataError(f"{path}: first line is not a sequence header")
    try:
        scenario = scenario_from_dict(header["scenario"])
    except (TypeError, ValueError, KeyError) as exc:
        raise DataError(f"{path}: invalid scenario in header: {exc}") from exc

    body = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line.strip()]
    if len(body) != scenario.frames:
        raise DataError(f"{path}: header says {scenario.frames} frames, found {len(body)}")
    frames = _load_frames(path, scenario)
    records = []
    for (lineno, line), pixels in zip(body, frames):
        image = Image(scenario.image_width, scenario.image_height, FRAME_CHANNELS, pixels)
        d = _parse_json(line, f"{path}:{lineno}")
        try:
            records.append(_frame_record(d, image, len(records)))
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: frame record missing {exc}") from exc
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return Sequence(scenario=scenario, records=records)


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
    payload = _load_json(path)
    if not isinstance(payload, dict) or payload.get("format") != TRACKRUN_FORMAT:
        raise DataError(f"{path}: not a {TRACKRUN_FORMAT} file")
    try:
        pred, gt = ([_box_from(b) for b in payload[k]] for k in ("pred", "gt"))
        tags = payload.get("tags", [])
        if not all(isinstance(t, list) and all(isinstance(s, str) for s in t) for t in tags):
            raise DataError("tags must be one list of strings per frame")
        if any(b.w < 0 or b.h < 0 for b in pred + gt):
            raise DataError("negative box dimensions")
        run = TrackRun(pred=pred, gt=gt, tags=[list(t) for t in tags])
    except (DataError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: invalid track run: {exc}") from exc
    return str(payload.get("sequence", "unknown")), run


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
