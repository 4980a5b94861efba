"""Host CPU speed, read from a fixed reference loop, for scaling times.

On a shared virtual machine a vCPU's speed drifts by +-25% over minutes as
neighbours come and go.  Run length does not help: on a 2-vCPU VM the
throughput of a fixed hamcirc loop spread by 0.28-0.33 (quartile distance
over median) whether it was averaged over 10 s or 60 s windows.  The drift
is shared by any Python code on the vCPU, so while a workload runs, a timer
signal times a fixed reference loop every INTERVAL_S, in the middle of
commands too.  Each command's time, less the time the handler took, is then
scaled by ``NOMINAL_S / median reference time`` around it.  Reported times
are therefore seconds at the reference speed, where the loop takes
``NOMINAL_S``; the raw times are printed beside them.  Set-up is sampled
the same way, inside the worker, and scaled by the median of its samples.

Measured on `outerplanar` commands over 4 minutes: the log of the command
time followed the log of the reference time with slope 0.82 and correlation
0.84, and the spread of 20 s windows fell from 0.144 to 0.032.  Probing only
between commands tracked far worse, and often over-corrected.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

NOMINAL_S = 0.002
INTERVAL_S = 0.2
SETUP_INTERVAL_S = 0.02  # set-up lasts 0.1-0.5 s, so sample it densely
WINDOW_S = 1.0  # wall time around a command whose samples scale it


def reference_loop() -> int:
    """Closure of a word of length 6 over 4 letters under rotation and
    single-letter substitution, stopped at 600 words: a parent dict, tuple
    slicing and a final sort, the same mix of work as hamcirc's loops."""
    start = (1, 2, 1, 2, 3, 4)
    parents = {start: None}
    queue = [start]
    i = 0
    while i < len(queue) and len(parents) < 600:
        w = queue[i]
        i += 1
        for k in range(1, len(w)):
            v = w[k:] + w[:k]
            if v not in parents:
                parents[v] = w
                queue.append(v)
        for p in range(len(w)):
            v = w[:p] + (w[p] % 4 + 1,) + w[p + 1:]
            if v not in parents:
                parents[v] = w
                queue.append(v)
    return len(sorted(parents))


def probe() -> float:
    """Seconds one reference loop takes now, garbage collection held off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_loop()
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class SpeedMeter:
    """Reference-loop samples taken from a SIGALRM handler while active.

    ``paused`` is the total time spent in the handler, which callers
    subtract from the intervals they time.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.times: list[float] = []  # when each sample started
        self.samples: list[float] = []
        self.paused = 0.0
        self._previous = None

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(probe())
        self.times.append(start)
        self.paused += perf_counter() - start

    def factor(self, start: float, end: float) -> float:
        """Scale for a command that ran from ``start`` to ``end``
        (perf_counter): nominal over the median sample within WINDOW_S of
        it, or over the nearest sample if none is that close."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.samples[lo:hi]
        if not near:
            i = min(range(len(self.times)), key=lambda j: abs(self.times[j] - start))
            near = [self.samples[i]]
        return NOMINAL_S / statistics.median(near)
