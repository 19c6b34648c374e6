"""Timings scaled to a fixed machine speed.

The benchmark's host is shared, and its speed drifts: the same
single-threaded loop takes up to half as long again from one minute to the
next, far more than any bound a regression check could use.  So every timed
segment (one set-up, one batch) is calibrated while it runs.  A calibration
sample is a fixed pure-Python loop, timed; a few samples are taken right
before the segment and one every INTERVAL_S during it, from a SIGALRM handler
that runs in the benchmark's own thread between the program's bytecodes, so
the samples see the speed the program saw.  The time spent in samples is
subtracted from every raw time, and an operation that ran from t0 to t1 is
reported as

    raw time x NOMINAL_S / (median of the samples taken from t0 - WINDOW_S
                            to t1 + WINDOW_S),

the time it would have taken on a machine where one sample takes NOMINAL_S.
The window is local because the speed moves within seconds: one factor for
a whole batch left a six-second operation off by the difference between its
own seconds and the batch's.  The loop
is independent of the program, so a change to the program moves the scaled
times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

LOOPS = 2500
# Typical median sample time during a run on the 2-vCPU machine the
# baseline was taken on (0.42 to 0.48 ms there, depending on the moment), so
# scaled times read close to the times measured there.
NOMINAL_S = 0.45e-3
INTERVAL_S = 0.025  # about 3% of a run goes to samples
WINDOW_S = 0.25
BEFORE = 5  # samples taken right before each segment


def _loop():
    s = 0
    d = {}
    for i in range(LOOPS):
        s += i * i % 7
        d[i & 1023] = s
    return s


class Calibration:
    """Context manager: SIGALRM sampling is on while it is entered."""

    def __init__(self):
        self.samples = []
        self.stamps = []  # when each sample ended, ascending
        self.spent = 0.0  # seconds spent in samples, all of them
        self._busy = False

    def sample(self, *_signal_args):
        if self._busy:  # the timer fired during a sample: skip, not nest
            return
        self._busy = True
        # the first pass refills the caches the program evicted, so the
        # timed second pass sees the processor's speed, not the program's
        # working set
        t0 = time.perf_counter()
        _loop()
        t1 = time.perf_counter()
        _loop()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.stamps.append(t2)
        self.spent += t2 - t0
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def begin(self):
        """Take the samples that go right before a timed segment."""
        for _ in range(BEFORE):
            self.sample()

    def scale(self, t0, t1):
        """Factor from raw to scaled seconds for what ran from t0 to t1."""
        i = bisect.bisect_left(self.stamps, t0 - WINDOW_S)
        j = bisect.bisect_right(self.stamps, t1 + WINDOW_S)
        return NOMINAL_S / statistics.median(self.samples[i:j] or self.samples)
