"""Machine-speed calibration for the benchmark's timings.

The benchmark box is shared: the same operation on the same input can take
twice as long from one minute to the next, and CPU time moves with wall
time, so neither can be compared across runs as measured.  A run therefore
interleaves a fixed calibration kernel with its work (``PER_CHECK``
samples after every ``EVERY_S`` of timed work) and divides its timings by
the run's median sample duration over ``REF_S``, the kernel's duration on
a quiet 2-core Xeon box.  The kernel does not call hybridoam, so a change
to the program cannot move it; it mixes small-matrix numpy calls and
interpreted loops, as the program does.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.010
EVERY_S = 0.5
PER_CHECK = 3
_KERNEL_ITERS = 250
_M = np.array([[1.0, 1j], [-1j, 2.0]]) / 3.0


def sample() -> float:
    """Duration of one calibration kernel run, in s."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_KERNEL_ITERS):
        x = np.kron(_M, _M)
        y = x @ x.conj().T
        acc += float(np.linalg.eigvalsh(y)[0]) + (i * i) % 7
    return time.perf_counter() - t0


class SpeedMeter:
    """Calibration samples taken in step with the timed work."""

    def __init__(self):
        self.samples: list[float] = []
        self._pending = 0.0

    def check(self) -> None:
        """Take one check's samples now."""
        self.samples.extend(sample() for _ in range(PER_CHECK))
        self._pending = 0.0

    def after(self, busy_s: float) -> None:
        """Account ``busy_s`` of timed work; check once per ``EVERY_S``."""
        self._pending += busy_s
        if self._pending >= EVERY_S:
            self.check()

    def slowdown(self) -> float:
        """Median sample duration over ``REF_S`` (>1: slower than reference)."""
        return statistics.median(self.samples) / REF_S
