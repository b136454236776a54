"""Machine-speed probe, used to make end-to-end times comparable.

On a shared host the speed of one CPU swings by up to 1.5x over periods
of seconds, far more than the bounds the benchmark sets. The probe times
a small fixed pure-Python kernel (rational sums, dict and tuple traffic,
like the library's own code). A time `t` measured while the kernel took
`k` is reported as `t * REFERENCE_S / k`: the time at the reference
speed, at which the kernel takes exactly REFERENCE_S. Raw times stay in
the run's record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.001
INTERVAL_S = 0.05  # sampling period while operations run
WINDOW_S = 0.1  # samples this close to an operation set its speed


def kernel():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 300):
        acc += Fraction(i % 7, i % 5 + 1)
        key = (i % 97, i % 13)
        seen[key] = seen.get(key, 0) + i * i
    return acc, len(seen)


class Sampler:
    """Runs the kernel from a timer signal every INTERVAL_S of wall time,
    interrupting the operation under way, and keeps each kernel's start
    and duration."""

    def __init__(self):
        self.samples = []  # (start, seconds); appended whole, as the handler may nest
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        started = time.perf_counter()
        kernel()
        self.samples.append((started, time.perf_counter() - started))

    def spent(self, first, start, end):
        """Seconds the kernel took between `start` and `end`, looking from
        sample index `first` on; operation times exclude them."""
        return sum(took for at, took in self.samples[first:] if start <= at <= end)

    def scales(self, spans):
        """Scale factor for each (start, end) span of work, from the samples
        taken within WINDOW_S of it (all samples if none are)."""
        ordered = sorted(self.samples)
        starts = [at for at, _took in ordered]
        overall = statistics.median(took for _at, took in ordered)
        out = []
        for start, end in spans:
            lo = bisect.bisect_left(starts, start - WINDOW_S)
            hi = bisect.bisect_right(starts, end + WINDOW_S)
            near = [took for _at, took in ordered[lo:hi]]
            out.append(REFERENCE_S / (statistics.median(near) if near else overall))
        return out
