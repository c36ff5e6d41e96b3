"""Host-speed ruler: scales measured times to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed swings by
half or more as other tenants come and go, and stays in one regime for
seconds at a time.  A plain wall time therefore measures the host as much as
hamops.  The ruler is a fixed piece of pure-Python work in the style of
hamops' inner loops (``Fraction`` arithmetic over a dict of tuple keys),
which calls nothing of hamops.  While the benchmark measures, a profiling
timer interrupts it every ``EVERY_S`` seconds of CPU time, inside calls as
well as between them, and the signal handler takes one reading: it times one
run of the ruler.  Each timed interval is then reported as

    reference time = (wall time - readings inside it) * NOMINAL_S
                     / (median reading in and around it)

that is, in seconds of a host on which one reading takes ``NOMINAL_S``.  On
a 2-core x86-64 container the median reading was about 2 ms when the host
was quiet, which sets ``NOMINAL_S``, so reference times read about as wall
times do there.  A change to hamops moves reference times and leaves the
ruler alone; a change to the host's speed moves both and cancels.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.002
# CPU seconds between two readings: about 2% of the time goes to the ruler.
EVERY_S = 0.1
# Readings this close to a timed interval, before or after it, calibrate it
# together with the readings inside it.
WINDOW_S = 0.3

_SIDE = 5


def _work():
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(_SIDE) for j in range(_SIDE)}
    b = {(i, j): Fraction(j - 3, i + 1) for i in range(_SIDE) for j in range(_SIDE)}
    out = {}
    for (i, j), x in a.items():
        for (k, m), y in b.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + x * y
    return out


class Ruler:
    def __init__(self):
        self.at = []  # start time of each reading, ascending
        self.took = []  # seconds each reading took

    def read(self, times=1):
        for _ in range(times):
            start = perf_counter()
            _work()
            self.at.append(start)
            self.took.append(perf_counter() - start)

    def _tick(self, signum, frame):
        self.read()

    def start(self):
        """Take a reading every EVERY_S CPU seconds until ``stop``."""
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def reference_s(self, start, end):
        """Reference seconds of the wall interval [start, end]."""
        inside_lo = bisect.bisect_left(self.at, start)
        inside_hi = bisect.bisect_left(self.at, end)
        own = end - start - sum(self.took[inside_lo:inside_hi])
        # The readings within WINDOW_S of the interval, and at least the
        # nearest one on each side.
        lo = min(bisect.bisect_left(self.at, start - WINDOW_S), max(inside_lo - 1, 0))
        hi = max(bisect.bisect_right(self.at, end + WINDOW_S), min(inside_hi + 1, len(self.at)))
        return own * NOMINAL_S / statistics.median(self.took[lo:hi])
