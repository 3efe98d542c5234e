"""How fast the machine runs Python right now, for rescaling wall times.

On a shared host the same pass varies by a factor of up to two in wall
time as the host's load changes, within seconds.  A fixed reference loop
of about a millisecond, timed while the measured code runs, tracks that
speed; dividing by it rescales a wall time to the machine speed at which
the loop takes REF_SAMPLE_S.
"""
from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# time of the reference loop at the nominal machine speed
REF_SAMPLE_S = 0.001


def sample() -> float:
    """Seconds taken by the reference loop."""
    # with the collector off, the loop's cost does not depend on the size
    # of the heap around it
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 97 - 48, i % 13 + 1)
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def scale(seconds: float, samples: list) -> float:
    """seconds, rescaled to the nominal speed by the mean of samples."""
    if not samples:
        return seconds
    return seconds * REF_SAMPLE_S * len(samples) / sum(samples)


class Speedometer:
    """Samples the reference loop every INTERVAL_S seconds, from a timer
    signal, while the with-block runs; no thread is started."""

    INTERVAL_S = 0.1

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
