"""Per-frame reference for ``xmtrack.sim.Scenario.frame_masks``.

``frame_masks`` builds every frame's band, validity and nearness to a band
switch at once, as three bool masks.  This module answers the same three
questions for one frame at a time, straight from the scenario's schedule
and windows, so the tests can check the masks against loops that share no
code with them.
"""


def scheduled_modality(sc, t: int) -> str:
    for start, end, mod in sc.modality_schedule:
        if start <= t < end:
            return mod
    return "rgb"  # gaps between segments default to RGB


def is_invalid(sc, t: int) -> bool:
    return any(start <= t < end for start, end in sc.invalid_windows)


def near_switch(sc, t: int) -> bool:
    r = sc.switch_radius
    return any(
        scheduled_modality(sc, u) != scheduled_modality(sc, u - 1)
        for u in range(max(1, t - r), min(sc.frames - 1, t + r) + 1)
    )
