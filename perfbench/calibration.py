"""Machine-speed calibration for the end-to-end timings.

On a shared host the same code runs up to ~40% slower for seconds to
minutes at a time, so raw wall times of two runs differ by more than any
useful regression bound.  A fixed kernel that does what tsglab spends its
time on (composing permutations stored as tuples, dict lookups, 4x4 SVDs)
is timed in the same process as each timed operation: right before it,
right after it and, from a timer signal, every SAMPLE_EVERY_S during it.
The operation is reported in reference seconds,

    wall seconds (kernel runs excluded) x REFERENCE_S / (mean kernel time),

the time it would take on a machine where the kernel takes REFERENCE_S.
The kernel uses no tsglab code, so a change to tsglab cannot move it.  Raw
wall seconds are reported alongside.
"""

import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0035  # about the kernel's median time on the machine it was tuned on
SAMPLE_EVERY_S = 0.25

_PERM = tuple((7 * i + 3) % 61 for i in range(61))
_MATRICES = np.random.default_rng(0).standard_normal((60, 4, 4)) - np.eye(4)


def kernel_seconds() -> float:
    t0 = perf_counter()
    p = _PERM
    seen = {}
    for i in range(750):
        p = tuple(p[j] for j in _PERM)
        seen[p] = i
    for m in _MATRICES:
        np.linalg.svd(m)
    return perf_counter() - t0


def reference_seconds(wall: float, kernels: list[float]) -> float:
    return wall * REFERENCE_S / statistics.mean(kernels)


class SpeedSampler:
    """Times a block (main thread only) in wall and reference seconds.
    Disabled, it runs no kernel and times wall seconds only."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled

    def __enter__(self):
        self._t0 = perf_counter()
        if not self.enabled:
            return self
        self.kernels = [kernel_seconds()]
        self._inside = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._t0 = perf_counter()
        return self

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.kernels.append(kernel_seconds())
        self._inside += perf_counter() - t0

    def __exit__(self, *exc):
        if not self.enabled:
            self.wall = self.reference = perf_counter() - self._t0
            return False
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.kernels.append(kernel_seconds())
        self.wall = elapsed - self._inside
        self.reference = reference_seconds(self.wall, self.kernels)
        return False
