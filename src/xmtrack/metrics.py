"""Tracking metrics: center-location error, IoU, PR/SR and tag breakdowns.

PR counts frames whose CLE is strictly below 20 px; SR counts frames whose
IoU strictly exceeds 0.5.  Both are percentages.  Boundary frames (CLE
exactly 20, IoU exactly 0.5) do not count — the thresholds are strict.

The rates are array expressions: ``cle_array`` and ``iou_array`` score
``(..., 4)`` box arrays ``(cx, cy, w, h)`` elementwise, each in its scalar
twin's operation order, so a frame scores the same bits either way.
``hit_masks`` is the one place that applies both thresholds to them; PR/SR,
``tag_breakdown`` and the ablation count its hits.  The scalar ``cle`` and
``iou`` stay as the per-box API and the tests' oracle.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .ctp import BBox

PR_TAU_PX = 20.0
SR_TAU_IOU = 0.5


def cle(pred: BBox, gt: BBox) -> float:
    """Euclidean distance between box centers, in pixels."""
    return float(np.hypot(pred.cx - gt.cx, pred.cy - gt.cy))


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of axis-aligned center-parameterized boxes.

    Zero-area boxes give 0; negative dimensions are rejected as data errors.
    """
    if a.w < 0 or a.h < 0 or b.w < 0 or b.h < 0:
        raise ValueError("iou: negative box dimensions")
    ix = min(a.cx + a.w / 2, b.cx + b.w / 2) - max(a.cx - a.w / 2, b.cx - b.w / 2)
    iy = min(a.cy + a.h / 2, b.cy + b.h / 2) - max(a.cy - a.h / 2, b.cy - b.h / 2)
    inter = max(0.0, ix) * max(0.0, iy)
    union = a.w * a.h + b.w * b.h - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def cle_array(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """``cle`` of every box pair in two broadcastable ``(..., 4)`` arrays."""
    return np.hypot(pred[..., 0] - gt[..., 0], pred[..., 1] - gt[..., 1])


def iou_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``iou`` of every box pair in two broadcastable ``(..., 4)`` arrays."""
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


def hit_masks(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PR and SR hits of every box pair in two broadcastable ``(..., 4)`` arrays.

    The one scoring rule: ``cle < PR_TAU_PX`` and ``iou > SR_TAU_IOU``.
    """
    return cle_array(pred, gt) < PR_TAU_PX, iou_array(pred, gt) > SR_TAU_IOU


def box_array(boxes: list[BBox]) -> np.ndarray:
    """``(N, 4)`` float64 array of ``(cx, cy, w, h)`` rows."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


@dataclass
class TrackRun:
    """Aligned predicted and ground-truth boxes plus per-frame tags.

    No frame may carry the tag ``all``: ``tag_breakdown`` reports every
    frame under that name.
    """

    pred: list[BBox]
    gt: list[BBox]
    tags: list[list[str]] = field(default_factory=list)

    def __post_init__(self):
        if not self.pred:
            raise ValueError("TrackRun: empty run")
        if len(self.pred) != len(self.gt):
            raise ValueError(
                f"TrackRun: {len(self.pred)} predictions vs {len(self.gt)} ground truths"
            )
        if not self.tags:
            self.tags = [[] for _ in self.pred]
        if len(self.tags) != len(self.pred):
            raise ValueError("TrackRun: tags misaligned with frames")
        if any("all" in tags for tags in self.tags):
            raise ValueError("TrackRun: 'all' names the all-frames row and is not a frame tag")

    def __len__(self) -> int:
        return len(self.pred)


def precision_rate(run: TrackRun) -> float:
    """Percentage of the run's frames that ``hit_masks`` counts as PR hits."""
    pr_hits, _ = hit_masks(box_array(run.pred), box_array(run.gt))
    return 100.0 * int(np.count_nonzero(pr_hits)) / len(run)


def success_rate(run: TrackRun) -> float:
    """Percentage of the run's frames that ``hit_masks`` counts as SR hits."""
    _, sr_hits = hit_masks(box_array(run.pred), box_array(run.gt))
    return 100.0 * int(np.count_nonzero(sr_hits)) / len(run)


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
    pr_hits, sr_hits = hit_masks(box_array(run.pred), box_array(run.gt))

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
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
