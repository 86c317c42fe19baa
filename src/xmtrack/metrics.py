"""Tracking metrics: center-location error, IoU, PR/SR and tag breakdowns.

PR counts frames whose CLE is strictly below 20 px; SR counts frames whose
IoU strictly exceeds 0.5.  Both are percentages.  Boundary frames (CLE
exactly 20, IoU exactly 0.5) do not count — the thresholds are strict.

The box scores are written once: ``cle_array`` and ``iou_array`` score
``(..., 4)`` box arrays ``(cx, cy, w, h)`` elementwise, bit for bit as the
scalar formulas in ``tests/box_oracle.py``.  The per-box ``cle`` and ``iou``
read one row of them (``iou`` is the per-box API; ``cle`` is kept for the
benchmark's call count).  ``hit_masks`` is the one place that applies both
thresholds; ``tag_breakdown`` and the ablation count its hits.  A run's
overall PR/SR is ``tag_breakdown(run)["all"]``.  A ``TrackRun`` holds
columns, as ``sim.Sequence`` does: ``tag_breakdown`` scores its ``(T, 4)``
``pred_boxes`` and ``gt_boxes`` as they are, and its ``BBox`` lists ``pred``
and ``gt`` are transitional views, built only when read, like
``Sequence.records``.  ``core.dump_json``, xmtrack's one JSON writer, encodes
``metrics_summary``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import dump_json
from .ctp import BBox

PR_TAU_PX = 20.0
SR_TAU_IOU = 0.5


def cle_array(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Center distance in pixels of every box pair in two broadcastable ``(..., 4)`` arrays."""
    return np.hypot(pred[..., 0] - gt[..., 0], pred[..., 1] - gt[..., 1])


def iou_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every box pair in two broadcastable ``(..., 4)`` arrays; a zero union scores 0."""
    if (a[..., 2:] < 0).any() or (b[..., 2:] < 0).any():
        raise ValueError("iou: negative box dimensions")
    half_a, half_b = a[..., 2:] / 2, b[..., 2:] / 2
    sides = np.minimum(a[..., :2] + half_a, b[..., :2] + half_b) - np.maximum(
        a[..., :2] - half_a, b[..., :2] - half_b
    )
    np.maximum(sides, 0.0, out=sides)
    inter = sides[..., 0] * sides[..., 1]
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def cle(pred: BBox, gt: BBox) -> float:
    """``cle_array`` of one box pair."""
    return float(cle_array(pred.as_array(), gt.as_array()))


def iou(a: BBox, b: BBox) -> float:
    """``iou_array`` of one box pair."""
    return float(iou_array(a.as_array(), b.as_array()))


def hit_masks(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PR and SR hits of every box pair in two broadcastable ``(..., 4)`` arrays.

    The one scoring rule: ``cle < PR_TAU_PX`` and ``iou > SR_TAU_IOU``.
    """
    return cle_array(pred, gt) < PR_TAU_PX, iou_array(pred, gt) > SR_TAU_IOU


@dataclass
class TrackRun:
    """Aligned predicted and ground-truth boxes plus each frame's tags.

    ``pred_boxes`` and ``gt_boxes`` are read-only ``(T, 4)`` float64 copies
    of the ``(cx, cy, w, h)`` rows given.  ``tags`` holds one list of
    strings per frame, an empty list for an untagged frame.  No frame may
    carry the tag ``all``: ``tag_breakdown`` reports every frame under that
    name.
    """

    pred_boxes: np.ndarray
    gt_boxes: np.ndarray
    tags: list[list[str]]

    def __post_init__(self):
        for name in ("pred_boxes", "gt_boxes"):
            boxes = np.array(getattr(self, name), dtype=np.float64)
            if boxes.ndim != 2 or boxes.shape[1] != 4:
                raise ValueError(f"TrackRun: {name} must be a (T, 4) array, not shape {boxes.shape}")
            boxes.flags.writeable = False
            setattr(self, name, boxes)
        if not len(self):
            raise ValueError("TrackRun: empty run")
        if len(self) != len(self.gt_boxes):
            raise ValueError(f"TrackRun: {len(self)} predictions vs {len(self.gt_boxes)} ground truths")
        if not (isinstance(self.tags, list) and len(self.tags) == len(self)) or not all(
            isinstance(tags, list) and all(isinstance(t, str) for t in tags) for tags in self.tags
        ):
            raise ValueError("TrackRun: tags must be one list of strings per frame")
        if any("all" in tags for tags in self.tags):
            raise ValueError("TrackRun: 'all' names the all-frames row and is not a frame tag")

    def __len__(self) -> int:
        return len(self.pred_boxes)

    @cached_property
    def pred(self) -> list[BBox]:
        """One ``BBox`` per row of ``pred_boxes``: a transitional view, built on first read."""
        return [BBox(*box) for box in self.pred_boxes.tolist()]

    @cached_property
    def gt(self) -> list[BBox]:
        """One ``BBox`` per row of ``gt_boxes``: a transitional view, built on first read."""
        return [BBox(*box) for box in self.gt_boxes.tolist()]


@dataclass(frozen=True)
class MetricRow:
    pr: float
    sr: float
    n: int


def tag_breakdown(run: TrackRun) -> dict[str, MetricRow]:
    """PR/SR over every frame as the 'all' row, then per tag in sorted order.

    Each frame's PR and SR hits are evaluated once; a frame may carry
    several tags and then counts toward each of them.
    """
    pr_hits, sr_hits = hit_masks(run.pred_boxes, run.gt_boxes)

    def row(mask: np.ndarray) -> MetricRow:
        n = int(np.count_nonzero(mask))
        pr = 100.0 * int(np.count_nonzero(pr_hits & mask)) / n
        sr = 100.0 * int(np.count_nonzero(sr_hits & mask)) / n
        return MetricRow(pr=pr, sr=sr, n=n)

    table = {"all": row(np.ones(len(run), dtype=bool))}
    for tag in sorted({t for tags in run.tags for t in tags}):
        table[tag] = row(np.array([tag in tags for tags in run.tags]))
    return table


def metrics_csv(sequence: str, run: TrackRun) -> str:
    """CSV with columns (sequence, tag, PR, SR, N); 'all' row first."""
    table = tag_breakdown(run)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")  # quotes a field holding a comma, quote or newline
    writer.writerow(["sequence", "tag", "PR", "SR", "N"])
    for tag, row in table.items():
        writer.writerow([sequence, tag, f"{row.pr:.4f}", f"{row.sr:.4f}", row.n])
    return out.getvalue()


def metrics_summary(sequence: str, run: TrackRun) -> str:
    """JSON summary of the same table (stable key order, no timestamps)."""
    table = tag_breakdown(run)
    payload = {
        "sequence": sequence,
        "frames": len(run),
        "tags": {
            tag: {"PR": row.pr, "SR": row.sr, "N": row.n}
            for tag, row in table.items()
        },
    }
    return dump_json(payload) + "\n"
