"""The set-up phase every workload pays before its first timed operation.

``setup()`` imports ``xmtrack`` from the checkout's ``src/``, builds the
separator switch weights, an adapter stack and a tracker session, and warms
each of them up on one synthetic frame so that lazy initialisation lands
here and not in the first timed frame.

Run as a script it performs exactly that in a fresh interpreter and prints
the elapsed seconds as JSON; ``run.py`` starts it several times and reports
the median as ``setup_s``, scaled to reference host speed by the calibration
kernel (``calibrate.py``) run right after.  Interpreter start-up itself is
not counted; the import of numpy (through ``xmtrack``) is.

    python3 bench/startup.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS/OpenMP pools are pinned to one thread: the program's matrices are at
# most 8x8, so extra threads only add scheduling noise, and one thread stays
# within nproc on any machine.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SourceMissing(RuntimeError):
    """The checkout has no ``src/xmtrack`` to benchmark."""


def prepare_environment() -> None:
    """Pin thread pools and put the checkout's sources first on sys.path.

    Must run before numpy is imported.  Raises SourceMissing when the
    sources are absent, so the benchmark never measures some other copy of
    the package.
    """
    for var in THREAD_ENV:
        os.environ[var] = "1"
    if not (SRC / "xmtrack" / "__init__.py").is_file():
        raise SourceMissing(f"no xmtrack sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def setup(seed: int = 0) -> None:
    """Import xmtrack, build the per-run objects and warm them up."""
    import numpy as np

    import xmtrack
    from xmtrack.adapter import DEFAULT_DIM, DEFAULT_SEARCH_TOKENS, DEFAULT_TEMPLATE_TOKENS
    from xmtrack.adapter import random_adapter_stack

    if Path(xmtrack.__file__).resolve().parent != SRC / "xmtrack":
        raise SourceMissing(f"imported xmtrack from {xmtrack.__file__}, not {SRC}")

    rng = np.random.default_rng(seed)
    weights = xmtrack.separator_switch_weights()
    stack = random_adapter_stack(rng, layers=2, d=DEFAULT_DIM)
    box = xmtrack.BBox(cx=256.0, cy=256.0, w=34.0, h=34.0)
    session = xmtrack.TrackerSession(
        box, 512, 512, xmtrack.SessionConfig(), switch_weights=weights
    )

    # Warm-up: one valid and one over-exposed frame through the session, one
    # NIR adapter pass, one metric call.
    grey = np.full(64 * 64 * 3, 120, dtype=np.uint8)
    white = np.full(64 * 64 * 3, 255, dtype=np.uint8)
    for pixels in (grey, white):
        image = xmtrack.Image(width=64, height=64, channels=3, pixels=pixels)
        reported = session.step(xmtrack.FrameInput(observed=box, s=1.0, image=image))
    f_sr = rng.standard_normal((DEFAULT_SEARCH_TOKENS, DEFAULT_DIM))
    f_dyn = rng.standard_normal((DEFAULT_TEMPLATE_TOKENS, DEFAULT_DIM))
    xmtrack.apply_stack(f_sr, f_dyn, 0.9, xmtrack.TriState.NIR, stack)
    xmtrack.iou(box, reported)


def main() -> int:
    try:
        prepare_environment()
        t0 = time.perf_counter()
        setup()
        elapsed = time.perf_counter() - t0
    except SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    calibrate.kernel()  # the first call in a process pays one-time costs
    print(json.dumps({"setup_s": elapsed, "kernel_s": calibrate.kernel_seconds()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
