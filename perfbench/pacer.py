"""Host-speed probes, so that timings survive a host whose speed drifts.

On a shared cloud host the same pure-Python loop can take twice as long
from one half-minute to the next, and a verdict slows with it.  The pacer
measures that speed while the benchmark runs: a timer interrupts the
process every ``PERIOD_S`` seconds and times one fixed pure-Python chunk,
``probe()``.  A sample timed over ``[start, end]`` is then scaled by

    NOMINAL_S / mean(probe times taken during the sample, or next to it)

which gives its duration in seconds at the reference speed, the speed at
which one chunk takes ``NOMINAL_S``.  The probes run in the same process
and thread as the program, one at a time, and the time spent in them is
left out of the samples they interrupt.  The chunk is benchmark code, not
rkdual code, so a change to rkdual cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from operator import itemgetter

PERIOD_S = 0.2
NOMINAL_S = 0.01        # one chunk at the reference speed


def probe() -> float:
    """Seconds for one fixed chunk of the kinds of work rkdual does: sparse
    rows of small integers in nested dicts, Fraction sums, and sorting
    tuples by string keys.  Of the chunks tried, this mix tracked the
    verdict times of the random sweep most closely as the host drifted."""
    started = time.perf_counter()
    rows = {}
    for i in range(3000):
        row = rows.setdefault(i % 300, {})
        for j in range(5):
            k = (i * 7 + j * 13) % 401
            row[k] = row.get(k, 0) + (i * j) % 11 - 5
    acc = Fraction(0)
    for i in range(1, 750):
        acc += Fraction(i % 17 + 1, i % 13 + 1)
    names = [(i, 2 * i, str(i)) for i in range(10_000)]
    names.sort(key=itemgetter(2))
    if acc < 0 or len(rows) != 300:     # never true; keeps the results live
        raise AssertionError
    return time.perf_counter() - started


class Pacer:
    """Probes the host speed every ``PERIOD_S`` while installed."""

    def __init__(self):
        self.times = []        # perf_counter at the start of each probe
        self.probes = []       # its duration
        self.spent = 0.0       # total seconds inside probes

    def _tick(self, signum, frame):
        started = time.perf_counter()
        took = probe()
        self.times.append(started)
        self.probes.append(took)
        self.spent += time.perf_counter() - started

    def sample(self):
        """One probe outside the timer, e.g. around a child process."""
        self._tick(None, None)

    def install(self):
        self.sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def remove(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean probe near ``[start, end]``: the probes
        taken inside it and the last one before and first one after it."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        near = self.probes[max(lo - 1, 0):hi + 1]
        return NOMINAL_S / statistics.fmean(near)
