"""Per-box reference for ``xmtrack.metrics``' box scores.

``metrics`` scores boxes as ``(..., 4)`` array expressions (``cle_array``,
``iou_array``), and its per-box ``cle`` and ``iou`` read one row of them.
This module keeps the scalar formulas written out on one ``BBox`` pair, in
the same operation order, so the tests can hold the array code to them bit
for bit: a reordered operation or a changed threshold shows up here.
"""

import numpy as np

from xmtrack.ctp import BBox


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
