"""Reference speed of the machine, sampled throughout a run.

The machine this benchmark was written on is a shared 2-core VM whose speed
drifts by up to 2x (a fixed pure-Python loop ran 3.4-4.3 s over five runs;
one-second medians of a 40 ms loop ranged 31-58 ms), in slow periods that
can outlast a run, so no statistic within a run removes them.  Instead
every timed interval is scaled to the reference speed.  A timer signal
interrupts the work every SAMPLE_EVERY_S and times a fixed pure-Python
loop with the library's mix of work (bytes slicing, dict lookups, small
lists); an interval measured while that loop took ``r`` seconds on average
is reported as ``seconds * REF_NOMINAL_S / r``, where the seconds come from
:meth:`Calibration.clock`, which leaves out the time spent sampling.
Sampling inside long ops matters: the speed changes within a 2 s op.

On that VM the loop takes about REF_NOMINAL_S in its fast periods, so
reported times read as seconds on the quiet machine.  Raw seconds are kept
in the run record.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_ITERATIONS = 6000
REF_NOMINAL_S = 0.005
SAMPLE_EVERY_S = 0.1
# samples this close to an interval count for it, besides those inside it
WINDOW_S = 0.3

_BLOCK = bytes(range(256)) * 2


def reference_loop() -> float:
    """Seconds for one fixed block of interpreter work."""
    t0 = time.perf_counter()
    seen = {}
    for i in range(REF_ITERATIONS):
        key = _BLOCK[i % 256: i % 256 + 24]
        seen[key] = seen.get(key, 0) + 1
        row = [c for c in key[:6] if c & 1]
        if len(row) > 3:
            seen[i] = tuple(row)
    return time.perf_counter() - t0


class Calibration:
    """Samples of the reference loop over one run, and the scale factor
    they give for any interval of that run."""

    def __init__(self):
        self.start = []  # sample times on self.clock, increasing
        self.took = []
        self.hidden = 0.0  # seconds spent sampling so far
        self.busy = False

    def clock(self) -> float:
        """perf_counter without the time spent sampling."""
        return time.perf_counter() - self.hidden

    def sample(self, *_signal_args):
        if self.busy:  # a timer signal arrived during a sample
            return
        self.busy = True
        t0 = time.perf_counter()
        took = reference_loop()
        self.start.append(t0 - self.hidden)
        self.took.append(took)
        self.hidden += time.perf_counter() - t0
        self.busy = False

    def __enter__(self):
        """Sample every SAMPLE_EVERY_S until exit, also inside long calls."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factor(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the mean reference time around [start, end]
        (the highest and lowest sample dropped once there are five)."""
        lo = bisect.bisect_left(self.start, start - WINDOW_S)
        hi = bisect.bisect_right(self.start, end + WINDOW_S)
        before = max(bisect.bisect_right(self.start, start) - 1, 0)
        after = min(bisect.bisect_left(self.start, end), len(self.start) - 1)
        took = sorted(self.took[i] for i in set(range(lo, hi)) | {before, after})
        if len(took) >= 5:
            took = took[1:-1]
        return REF_NOMINAL_S / statistics.fmean(took)

    def seconds(self, start: float, end: float) -> float:
        """An interval of self.clock at reference speed."""
        return (end - start) * self.factor(start, end)
