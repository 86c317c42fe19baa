"""Frame-by-frame reference for ``xmtrack.sim.generate``'s observations.

``generate`` draws each valid frame's four stub-tracker normals inside its
render loop and then observes every frame with one vectorised
``stub_tracker`` call over the columns.  This module keeps the scalar
tracker that call replaced, one ``BBox`` per frame, and replays a whole
scenario on one RNG stream the way the per-frame generator did: ground
truth stepped one frame at a time, ``schedule_oracle``'s per-frame schedule
queries, and render (``render_oracle``'s per-channel draws), then observe,
frame by frame.  A reordered draw or a changed operation shows up as other
bits.
"""

import numpy as np
from box_oracle import cle
from render_oracle import render_frame
from schedule_oracle import is_invalid, near_switch, scheduled_modality

from xmtrack.ctp import BBox, turn_transition
from xmtrack.sim import DIMS_NOISE_SCALE, _invalid_observation


def stub_tracker(record_gt: BBox, sigma: float, rng: np.random.Generator) -> tuple[BBox, float]:
    """Noisy observation of the ground truth plus a confidence score.

    s = clamp(1 - CLE/20, 0, 1): confidence degrades linearly with the
    center error and bottoms out at 0 beyond 20 px.
    """
    noise = rng.normal(0.0, 1.0, 4) * sigma if sigma > 0 else np.zeros(4)
    obs = BBox(
        cx=record_gt.cx + noise[0],
        cy=record_gt.cy + noise[1],
        w=max(1.0, record_gt.w + DIMS_NOISE_SCALE * noise[2]),
        h=max(1.0, record_gt.h + DIMS_NOISE_SCALE * noise[3]),
    )
    s = min(1.0, max(0.0, 1.0 - cle(obs, record_gt) / 20.0))
    return obs, s


def replay(sc) -> list[tuple[np.ndarray, BBox, BBox, float]]:
    """Each frame's ``(pixels, gt, observed, s)``, generated one frame at a time."""
    rng = np.random.default_rng(sc.seed)
    f = turn_transition(sc.turn_rate)
    x = np.array([*sc.initial_box, *sc.velocity, 0.0, 0.0], dtype=np.float64)
    frames = []
    for t in range(sc.frames):
        gt = BBox(cx=x[0], cy=x[1], w=x[2], h=x[3])
        x = f @ x
        pixels = np.empty((sc.image_height, sc.image_width, 3), dtype=np.uint8)
        invalid = is_invalid(sc, t)
        render_frame(sc, scheduled_modality(sc, t) == "nir", invalid, (gt.cx, gt.cy, gt.w, gt.h), rng, pixels)
        if invalid:
            observed, s = BBox(*_invalid_observation(sc, rng)), 0.0
        else:
            near = near_switch(sc, t)
            observed, s = stub_tracker(gt, sc.sigma * (sc.switch_noise_boost if near else 1.0), rng)
            if near:
                s *= 0.5  # switching uncertainty damps confidence
        frames.append((pixels, gt, observed, s))
    return frames
