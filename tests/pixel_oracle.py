"""Integer gray-level reference used to cross-check xmtrack.state_switch.

``pixel_statistics`` counts white pixels from float32 lumas in thousandths
without forming a gray image; this module forms it the slow, obvious way in
int64, so a wrong threshold or weight there shows up as a different count.
"""

import numpy as np


def grayscale(img) -> np.ndarray:
    """Integer BT.601 luma of an ``Image``, shape (H, W), values 0..255.

    (299 r + 587 g + 114 b + 500) // 1000 on 3-channel pixels: integer
    arithmetic with half-up rounding, so results are identical across
    platforms.  A 1-channel pixel is its own gray level.
    """
    if img.channels == 1:
        return img.pixels.reshape(img.height, img.width).astype(np.int64)
    hwc = img.pixels.reshape(img.height, img.width, 3).astype(np.int64)
    r, g, b = hwc[..., 0], hwc[..., 1], hwc[..., 2]
    return (299 * r + 587 * g + 114 * b + 500) // 1000
