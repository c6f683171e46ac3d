"""The interpreter's speed over time, sampled while the workload runs.

The machine this benchmark runs on shares its cores with other tenants,
and the speed of pure-Python code swings by half for a second or two at a
time, and by more for minutes.  Every time the benchmark reports is
therefore also given in *reference seconds*: the measured time, divided by
how much slower than the reference speed the interpreter ran during it.

The speed is sampled by a fixed probe, a small sparse polynomial product
written here (it shares no code with the program, so a change to the
program cannot move it).  A SIGALRM interval timer runs the probe every
SAMPLE_EVERY seconds inside the main thread, between the bytecodes of
whatever the workload is doing, and records when it ran and how long it
took.  A request's slowdown is the mean probe time in and around its
interval over PROBE_REF_S, the probe's time at full speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

SAMPLE_EVERY = 0.05
# Probe time at full speed on the machine the baseline was measured on
# (2 vCPUs of a shared x86-64 host, CPython 3.11); only a scale, so that
# reference seconds read close to seconds.
PROBE_REF_S = 0.0004
WINDOW = 0.1          # samples this far outside a short interval still count

_A = {(i % 5, i // 5): (7 * i + 3) % 97 for i in range(20)}
_B = {(i % 4, i // 4): (5 * i + 1) % 97 for i in range(12)}


def probe():
    """A fixed amount of dict, tuple and int work, as polynomial code does."""
    for _ in range(6):
        out = {}
        for (a1, a2), ca in _A.items():
            for (b1, b2), cb in _B.items():
                key = (a1 + b1, a2 + b2)
                out[key] = (out.get(key, 0) + ca * cb) % 97
    return out


def probe_seconds(rounds=15):
    """The probe's median time over its last ten of `rounds` runs, for a
    process that does not run a Sampler (the first runs warm it up)."""
    durations = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        probe()
        durations.append(time.perf_counter() - t0)
    return statistics.median(durations[-10:])


class Sampler:
    """Runs the probe on a SIGALRM timer; use as a context manager."""

    def __init__(self):
        self.times, self.durations = [], []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.durations.append(t1 - t0)

    def __enter__(self):
        for _ in range(5):
            self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, t0, t1):
        """Mean probe time over [t0, t1] (widened to WINDOW on each side
        until it holds a few samples), relative to PROBE_REF_S."""
        pad = 0.0
        while True:
            lo = bisect.bisect_left(self.times, t0 - pad)
            hi = bisect.bisect_right(self.times, t1 + pad)
            if hi - lo >= 3 or pad >= 4 * WINDOW:
                break
            pad += WINDOW
        window = self.durations[lo:hi] or self.durations
        return sum(window) / len(window) / PROBE_REF_S

    def reference_seconds(self, t0, t1):
        """The time from t0 to t1, at the reference speed."""
        return (t1 - t0) / self.slowdown(t0, t1)
