"""Host speed, measured with a fixed unit of stdlib Fraction arithmetic.

On a shared machine the same core can run the same Python code 1.6x slower
for seconds at a time, and the two cores drift independently, so a probe
in another process or at another moment says little about a job.  The
sampler here runs the probe unit inside the job's own process, from a
SIGPROF handler every 0.05 s of CPU time, so it sees the speed the job saw.
The work done in an interval is proportional to its length over the unit
time sampled in it, so a time is rescaled to a reference host by
seconds * REFERENCE_UNIT_S / (harmonic mean of the unit times sampled while
it ran).  The probe costs about 2% of the job.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# one probe unit's time on the host the baseline was measured on
REFERENCE_UNIT_S = 0.0008
SAMPLE_EVERY_CPU_S = 0.05


def unit():
    """Seconds for one fixed batch of small Fraction arithmetic."""
    start = time.perf_counter()
    for k in range(1, 101):
        Fraction(k, k % 97 + 1) * Fraction(k % 89 + 1, k + 3) + Fraction(1, k % 11 + 1)
    return time.perf_counter() - start


def mean_unit(repeats):
    return statistics.harmonic_mean([unit() for _ in range(repeats)])


def rescale(seconds, unit_s):
    return seconds * REFERENCE_UNIT_S / unit_s


class Sampler:
    """Collect probe-unit times while a block runs (main thread only)."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(unit())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_CPU_S, SAMPLE_EVERY_CPU_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        if not self.samples:  # a block shorter than one period
            self.samples.append(unit())
        return False

    @property
    def mean(self):
        return statistics.harmonic_mean(self.samples)
