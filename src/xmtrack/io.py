"""File formats: scenarios, sequences, track runs, filter configs.

Everything is line-oriented JSON (diff-friendly, no timestamps, stable key
order) except a sequence's pixels: its ``(T, H, W, 3)`` uint8 frame stack is one
C-ordered ``.npy`` (``np.save``'s bytes) beside the JSONL, moved in 1 MiB chunks: ``simulate``
writes it as it renders, before the observations exist (a valid ``Scenario`` yields finite ones).
A sequence keeps only what its scenario cannot reproduce: the header's
scenario scripts the modality schedule, the invalid windows and the
ground-truth path, and each frame line holds the stub tracker's observed box
and confidence.  Sequences and track runs are written from and read into
their columns (``Sequence.gt``, ``observed`` and ``s``; ``TrackRun.pred_boxes``
and ``gt_boxes``), with no per-frame object: the transitional per-frame views
``Sequence.records`` and ``TrackRun.pred``/``gt`` are built only if read.  A
loader checks a column whole and walks it value by value only if that fails,
to name the first bad box or ``file:line``; a number is an int or a float
``core.is_number`` accepts.  ``save_sequence`` rejects a non-finite column.
Every JSON text is ``core.dump_json``'s (a frame line is formatted to match
it), so all writers are byte-deterministic given identical inputs.
"""

from __future__ import annotations

import json
import os
import tokenize
from contextlib import closing, contextmanager
from dataclasses import asdict, fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .core import dump_json, is_number
from .ctp import MotionKind, SessionConfig
from .metrics import TrackRun
from .sim import Scenario, Sequence
from .state_switch import FRAME_CHANNELS

TRACKRUN_FORMAT = "xmtrack-trackrun-v1"


class DataError(Exception):
    """Malformed or inconsistent input data (CLI exit code 2)."""


_FLOAT_MAX = np.finfo(np.float64).max


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
    Path(path).write_text(dump_json(asdict(sc)) + "\n", encoding="utf-8")


def load_scenario(path: str | Path) -> Scenario:
    try:
        return Scenario(**_load_json(path))
    except (TypeError, ValueError, KeyError) as exc:
        raise DataError(f"{path}: invalid scenario: {exc}") from exc


# ---------------------------------------------------------------------------
# sequence (JSON lines: header record then one record per frame)
# ---------------------------------------------------------------------------


def _finite(v, what: str) -> float:
    """A JSON int or float (a bool is neither) that ``core.is_number`` accepts, as a float."""
    if type(v) not in (int, float):
        raise DataError(f"bad {what} value {v!r}: not a number")
    if not is_number(v):  # NaN, an infinity, or an int past the float range
        raise DataError(f"non-finite {what} value {v!r}")
    return float(v)


def _box_values(v) -> list[float]:
    """``[cx, cy, w, h]`` from a JSON list of 4 finite numbers with w and h not negative."""
    if not (isinstance(v, list) and len(v) == 4):
        raise DataError(f"bad box value {v!r}: not a list of 4 numbers")
    box = [_finite(x, "box") for x in v]
    if box[2] < 0 or box[3] < 0:
        raise DataError(f"negative box dimensions in {v!r}")
    return box


def _number_column(values, boxes: bool) -> np.ndarray | None:
    """A JSON list of numbers ``_finite`` accepts, or (``boxes``) of boxes ``_box_values``
    accepts, as one float64 array: one type scan, one ``np.array``, then array checks.  None
    if any value may be bad, for the caller to walk the values one by one and name the first:
    a value at +-float max may be an int past the float range that the conversion rounded."""
    if type(values) is not list:
        return None
    try:
        if set(map(type, chain.from_iterable(values) if boxes else values)) <= {int, float}:
            column = np.array(values, dtype=np.float64)
            if column.shape == ((len(values), 4) if boxes else (len(values),)) and (abs(column) < _FLOAT_MAX).all():
                return None if boxes and (column[:, 2:] < 0).any() else column
    except (TypeError, ValueError, OverflowError):  # a box not a list, ragged boxes, an int past the floats
        pass
    return None


def _box_column(values) -> np.ndarray:
    """``(N, 4)`` boxes from a JSON list; a bad box is ``_box_values``' DataError."""
    column = _number_column(values, boxes=True)
    return np.array([_box_values(v) for v in values]).reshape(-1, 4) if column is None else column


def frames_path(path: str | Path) -> Path:
    """The ``.npy`` frame stack beside a sequence file: ``seq.jsonl`` -> ``seq.jsonl.npy``."""
    path = Path(path)
    return path.with_name(path.name + ".npy")


@contextmanager
def frame_writer(path: str | Path, sc: Scenario):
    """A sink (``generate``'s) that writes ``sc``'s C-contiguous frame chunks, in order, to ``frames_path(path)``.

    They go to a ``.part`` file beside the ``.npy`` (a symlink's target), which replaces it only if the block
    ends without an error and is removed if not: a failed or interrupted write leaves the old ``.npy``, or none.
    """
    npy = frames_path(path).resolve()
    part = npy.with_name(npy.name + ".part")
    try:
        with open(part, "wb") as fh:
            shape = (sc.frames, sc.image_height, sc.image_width, FRAME_CHANNELS)
            np.lib.format.write_array_header_1_0(fh, {"descr": "|u1", "fortran_order": False, "shape": shape})
            yield fh.write
        os.replace(part, npy)
    finally:
        part.unlink(missing_ok=True)


def frame_chunks(path: str | Path, sc: Scenario, k: int | None = None):
    """The ``.npy`` beside a sequence file as ``(k, H, W, 3)`` views of one buffer (k: ``sc.chunk_frames()``).

    Before the first chunk, a DataError naming the ``.npy`` rejects a bad magic (version 1.0), header,
    dtype, shape or order, or fewer bytes than the data's (more are ignored, as by ``np.load``).
    """
    npy, k = frames_path(path), k or sc.chunk_frames()
    shape = (sc.frames, sc.image_height, sc.image_width, FRAME_CHANNELS)
    try:
        with open(npy, "rb") as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                raise ValueError("not a version 1.0 .npy file")
            got, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            if dtype != np.uint8 or got != shape or fortran:
                raise DataError(f"{npy}: frames are {'Fortran' if fortran else 'C'}-ordered {dtype} {got}, "
                                f"the scenario's are C-ordered uint8 {shape}")
            if os.fstat(fh.fileno()).st_size - fh.tell() < np.prod(shape):
                raise ValueError(f"fewer than the {np.prod(shape)} bytes of the scenario's frames")
            buffer = np.empty((min(k, shape[0]), *shape[1:]), dtype=np.uint8)
            for start in range(0, shape[0], k):
                chunk = buffer[: shape[0] - start]
                if fh.readinto(chunk) != chunk.nbytes:
                    raise ValueError(f"the data ends before frame {start + len(chunk)}")
                yield chunk
    except (OSError, ValueError, SyntaxError, tokenize.TokenError) as exc:  # the last two: a garbled header
        raise DataError(f"{npy}: unreadable frame stack: {exc}") from exc


# A frame line as ``dump_json`` writes it: a finite float's repr is its JSON text.
_FRAME_LINE = '{"observed":[%r,%r,%r,%r],"s":%r}'


def save_sequence(path: str | Path, seq: Sequence):
    """Write a sequence's scenario and observations as JSONL; its pixels go through ``frame_writer``.

    The JSONL holds the header and one ``{"observed": [cx, cy, w, h], "s": s}``
    line per frame.  A non-finite ``observed`` or ``s`` is a DataError, raised
    before the file is written.
    """
    finite = np.isfinite(seq.observed).all(axis=1) & np.isfinite(seq.s)
    if not finite.all():
        raise DataError(f"{path}: frame {int(np.argmin(finite))} has a non-finite observed box or confidence")
    lines = [dump_json({"type": "header", "scenario": asdict(seq.scenario)})]
    lines += [_FRAME_LINE % tuple(row) for row in np.column_stack((seq.observed, seq.s)).tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _frame_values(d) -> tuple[list[float], float]:
    """A frame line's observed box and confidence."""
    if not isinstance(d, dict):
        raise DataError("expected a frame record")
    s = _finite(d["s"], "confidence")
    if not 0.0 <= s <= 1.0:
        raise DataError(f"confidence s={s} outside [0, 1]")
    return _box_values(d["observed"]), s


def load_sequence(path: str | Path) -> Sequence:
    """Read a sequence file and check its frame stack; bad input is a DataError.

    The JSONL must hold one frame line per scenario frame, and the
    ``.npy`` beside it (``frames_path``) pass ``frame_chunks``' checks; the
    stack stays on disk (``frames`` is None) for ``frame_chunks`` to read.
    The lines fill the ``observed`` and ``s`` columns and ``gt`` is
    ``scenario.gt_path()``; no per-frame object is built.  A
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
    with closing(frame_chunks(path, scenario, 1)) as chunks:
        next(chunks)  # the .npy is checked before its first frame is read
    gt = scenario.gt_path()
    try:  # both columns at once; on any failure, the line-by-line walk below names the first bad line
        records = [json.loads(line) for _, line in body]
        observed = _number_column([d["observed"] for d in records], boxes=True)
        s = _number_column([d["s"] for d in records], boxes=False)
        if observed is not None and s is not None and ((s >= 0.0) & (s <= 1.0)).all():
            return Sequence(scenario, None, gt, observed, s)
    except (ValueError, RecursionError, KeyError, TypeError):  # a line not JSON, or not a frame record
        pass
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
    return Sequence(scenario, None, gt, np.array(observed), np.array(s))


# ---------------------------------------------------------------------------
# track runs
# ---------------------------------------------------------------------------


def save_trackrun(path: str | Path, sequence_name: str, run: TrackRun):
    payload = {
        "format": TRACKRUN_FORMAT,
        "sequence": sequence_name,
        "pred": run.pred_boxes.tolist(),
        "gt": run.gt_boxes.tolist(),
        "tags": run.tags,
    }
    Path(path).write_text(dump_json(payload) + "\n", encoding="utf-8")


def load_trackrun(path: str | Path) -> tuple[str, TrackRun]:
    """A track-run file's sequence name and run; a missing key or a bad value is a DataError."""
    payload = _load_json(path)
    if not isinstance(payload, dict) or payload.get("format") != TRACKRUN_FORMAT:
        raise DataError(f"{path}: not a {TRACKRUN_FORMAT} file")
    try:
        pred, gt = (_box_column(payload[k]) for k in ("pred", "gt"))
        name = payload["sequence"]
        if not isinstance(name, str):
            raise DataError(f"sequence name {name!r} is not a string")
        run = TrackRun(pred_boxes=pred, gt_boxes=gt, tags=payload["tags"])
    except (DataError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: invalid track run: {exc}") from exc
    return name, run


# ---------------------------------------------------------------------------
# filter config files
# ---------------------------------------------------------------------------


def load_session_config(path: str | Path, base: SessionConfig | None = None) -> SessionConfig:
    """Overlay the keys a config file sets onto ``base`` (default: ``SessionConfig()``).

    Keys are the ``SessionConfig`` fields, with ``motion`` the motion kind
    (``"cv"``/``"ct"``), plus ``turn_rate``; the two overlay the base motion
    model separately.  The file is read at ``path`` as given; a missing
    file, unknown keys and out-of-range values are data errors.
    """
    d = _load_json(path)
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
