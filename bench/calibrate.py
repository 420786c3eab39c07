"""Machine-speed calibration for timings taken on a shared host.

The host the benchmark was defined on (2 vCPUs of an Intel Xeon VM) changes
speed by up to 1.9x over tens of seconds, depending on what its neighbours
run; the slowdown shows in process CPU time as well as wall time, so it is
not time spent descheduled. Every timed operation is therefore preceded by
a short fixed kernel set that does not touch the codec, and the operation's
time is divided by how much slower than ``NOMINAL`` that set ran. The
kernels mix the three kinds of work the codec does: interpreter overhead,
many numpy calls on small arrays, and passes over arrays larger than the
L2 cache.
"""
from __future__ import annotations

import math
import time

import numpy as np

# Median seconds of each kernel on the reference host. They only fix the
# unit: a normalized time reads as the time the operation would take when
# the kernels run at these speeds.
NOMINAL = {"python": 0.0060, "small_arrays": 0.0085, "mid_arrays": 0.0030, "large_arrays": 0.0067}
_SQRT2 = math.sqrt(2.0)


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [rng.random((64, 64)) for _ in range(8)]
        self._mid = rng.random((288, 352))
        self._large = rng.random((720, 1280))
        self._kernels = {
            "python": self._python,
            "small_arrays": self._small_arrays,
            "mid_arrays": self._mid_arrays,
            "large_arrays": self._large_arrays,
        }

    @staticmethod
    def _python():
        total = 0
        for i in range(80_000):
            total += (i * i) % 7
        return total

    def _small_arrays(self):
        for _ in range(50):
            for x in self._small:
                half = (x[:, 0::2] + x[:, 1::2]) / _SQRT2
                np.linalg.norm(np.stack([half.ravel(), half.ravel()]), axis=0)

    def _mid_arrays(self):
        for _ in range(20):
            half = (self._mid[:, 0::2] + self._mid[:, 1::2]) / _SQRT2
            (half[0::2] - half[1::2]).sum()

    def _large_arrays(self):
        for _ in range(2):
            half = (self._large[:, 0::2] + self._large[:, 1::2]) / _SQRT2
            (half[0::2] - half[1::2]).sum()

    def slowdown(self) -> float:
        """Geometric mean over the kernels of measured / nominal time; 1.0 is reference speed."""
        log_sum = 0.0
        for name, kernel in self._kernels.items():
            start = time.perf_counter()
            kernel()
            log_sum += math.log((time.perf_counter() - start) / NOMINAL[name])
        return math.exp(log_sum / len(self._kernels))


class SegmentClock:
    """Times consecutive steps, each divided by the slowdown around it.

    A calibration pass runs before the first step and after every step; a
    step's slowdown is the geometric mean of the passes on either side.
    """

    def __init__(self, calibration: Calibration):
        self._calibration = calibration
        self._last = calibration.slowdown()
        self.raw = 0.0
        self.normalized = 0.0

    def step(self, call):
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        after = self._calibration.slowdown()
        self.raw += elapsed
        self.normalized += elapsed / math.sqrt(self._last * after)
        self._last = after
        return result

    @property
    def slowdown(self) -> float:
        """The slowdown the steps saw on average."""
        return self.raw / self.normalized
