"""Channel-by-channel reference for ``xmtrack.sim.render_frame``.

``render_frame`` draws an RGB frame's noise as one ``(3, H, W)``
``standard_normal`` block, scales and shifts it in place and clips it with
one ufunc call.  This module keeps the render that one block replaced: one
``rng.normal(mu, PIXEL_NOISE, (H, W))`` draw, one ``np.clip`` and one
``np.rint`` per channel.  NIR and invalid frames render as they always have.
A reordered draw or a changed operation shows up as other pixels or another
generator state.
"""

import numpy as np

from xmtrack.sim import (
    INVALID_WHITE_FRACTION,
    NIR_MEAN,
    PIXEL_MAX,
    PIXEL_NOISE,
    RGB_CHANNEL_MEANS,
    TARGET_BOOST,
    _box_to_image_rect,
)


def render_frame(sc, nir: bool, invalid: bool, gt, rng: np.random.Generator, out: np.ndarray):
    """Render a NIR or RGB frame, or an invalid one, into ``out``, an ``(ih, iw, 3)`` uint8 view."""
    iw, ih = sc.image_width, sc.image_height
    if invalid:
        n_dark = int(round((1.0 - INVALID_WHITE_FRACTION) * iw * ih))
        rows, cols = np.divmod(rng.choice(iw * ih, size=n_dark, replace=False), iw)
        out.fill(255)
        out[rows, cols] = 80
        return
    rect = _box_to_image_rect(gt, sc)
    if nir:
        band = rng.normal(NIR_MEAN, PIXEL_NOISE, (ih, iw))
        if rect:
            x0, x1, y0, y1 = rect
            band[y0:y1, x0:x1] += TARGET_BOOST
        np.clip(band, 0, PIXEL_MAX, out=band)
        for c in range(out.shape[2]):
            np.rint(band, out=out[:, :, c], casting="unsafe")
        return
    chans = [rng.normal(mu, PIXEL_NOISE, (ih, iw)) for mu in RGB_CHANNEL_MEANS]
    if rect:
        x0, x1, y0, y1 = rect
        chans[0][y0:y1, x0:x1] += TARGET_BOOST
    for c, chan in enumerate(chans):
        np.clip(chan, 0, PIXEL_MAX, out=chan)
        np.rint(chan, out=out[:, :, c], casting="unsafe")
