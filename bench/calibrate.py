"""Host-speed calibration for the benchmark's timings.

On a shared host the CPU speed drifts, in bursts and in phases of ten
seconds or more (other tenants, frequency scaling).  On a 2-vCPU Intel Xeon
VM one ablation suite took anywhere from 0.66 s to 1.31 s within a single
minute, and the median frames/s of ten 30 s runs of identical code spread by
9-22% (first to third quartile over median); scaled as below, by 3-7%.

Every timed stage (a suite, a stream pass, one CLI command) is therefore
bracketed by a fixed reference kernel, and its wall time is scaled by
``REFERENCE_S / kernel time`` (the mean of the kernels just before and just
after it): reported times are seconds at the speed the host had when the
kernel took ``REFERENCE_S``.  The kernel is the benchmark's own code, a mix
of Python-level loops and small numpy linear algebra and array ops like the
program's, so no change to ``xmtrack`` can move it.  Raw wall times are kept
in the run record.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.15  # about the kernel's median duration on the 2-vCPU Xeon VM above


def kernel() -> float:
    """Fixed deterministic work; returns a checksum so nothing is skipped."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8))
    img = rng.random((3, 64, 64))
    schedule = [(s, s + 25, "rgb" if k % 2 else "nir") for k, s in enumerate(range(0, 600, 25))]
    acc = 0.0
    for _ in range(240):
        for t in range(0, 600, 3):
            for start, end, mod in schedule:
                if start <= t < end:
                    acc += len(mod)
                    break
        for j in range(20):
            b = a @ a.T + np.eye(8)
            acc += float(np.linalg.solve(b[:4, :4], a[:4, j % 8]).sum())
            acc += float(np.maximum(img[:, j : j + 16, :] - 0.5, 0.0).max())
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedGauge:
    """Scale factors for consecutive timed units, from kernels run between them."""

    def __init__(self):
        kernel()  # the first call in a process pays one-time costs
        self.last = kernel_seconds()
        self.samples = [self.last]
        self.factors: list[float] = []

    def factor(self) -> float:
        """Factor for the unit that ran since the previous kernel."""
        now = kernel_seconds()
        self.samples.append(now)
        f = REFERENCE_S / ((self.last + now) / 2.0)
        self.last = now
        self.factors.append(f)
        return f
