"""Host-speed calibration.

On the shared 2-CPU host used to set the benchmark's bounds, the same
Python code runs up to 1.7 times slower for stretches of seconds to
minutes, depending on its neighbours.  Taking the fastest of several
passes does not remove that for ops longer than the fast stretches, so
every time the benchmark reports is normalised instead: a fixed reference
kernel (Fraction and mpmath arithmetic, like the program's own) is timed
between the ops of a run, and each measured time is scaled by

    REFERENCE_S / mean(reference kernel time during that run).

The result reads as the time on a host where the kernel takes REFERENCE_S,
and it does not move when the whole host slows down.  The kernel does not
touch ``stpanto``, so no change to the program can change it.  The raw
times and the factor are kept in each run's detail record.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import mpmath

REFERENCE_S = 1.0e-3    # nominal kernel time: about its value on that host when fast
SAMPLE_EVERY_S = 0.02   # one kernel run per this much measured op time

_CTX = mpmath.MPContext()
_CTX.dps = 30


def reference_kernel() -> float:
    """Run the fixed kernel once and return its wall time in seconds."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(1, i * i + 1)
    x, s = _CTX.mpf(1) / 3, _CTX.mpf(0)
    for i in range(100):
        s = s + x * s / (i + 1) + x
    return perf_counter() - t0


class HostMeter:
    """Samples the reference kernel once per SAMPLE_EVERY_S of op time."""

    def __init__(self):
        self.samples: list[float] = []
        self._since = SAMPLE_EVERY_S  # sample before the first op too

    def after_op(self, latency: float):
        self._since += latency
        if self._since >= SAMPLE_EVERY_S:
            self.samples.append(reference_kernel())
            self._since = 0.0

    def sample(self, n: int = 1):
        self.samples.extend(reference_kernel() for _ in range(n))

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to normalise it."""
        return REFERENCE_S / statistics.mean(self.samples)

    def record(self) -> dict:
        return {"reference_mean_s": statistics.mean(self.samples),
                "reference_median_s": statistics.median(self.samples),
                "samples": len(self.samples), "factor": self.factor}
