"""Speed-normalised timing for a machine whose speed drifts.

On a shared host the same Python code runs up to about 1.5 times
slower for seconds at a time.  While a ``SpeedMeter`` is active, a
SIGALRM handler times a fixed stdlib-only loop every ``PERIOD`` seconds.
``normalise`` turns a raw interval into the seconds it would have taken
at the speed where that loop takes ``REFERENCE_S``: the raw time minus
the handler's own time, scaled by REFERENCE_S over the loop's mean time
over the samples taken during the interval and MARGIN samples on each
side of it.  A single sample varies by about 8 %; averaging 17 or more
brings that to about 2 %, so even a short interval is scaled steadily.
The loop never calls the library, so a change to the library cannot
move the reference.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter

PERIOD = 0.025
#: Samples taken on each side of an interval that also scale it.
MARGIN = 8
#: Median time of ``calibration_loop`` on the 2-core machine the
#: benchmark was written on (Python 3.11.7).
REFERENCE_S = 0.000215


def calibration_loop() -> int:
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


def sample_cost() -> float:
    t0 = perf_counter()
    calibration_loop()
    return perf_counter() - t0


class SpeedMeter:
    """Context manager sampling the interpreter's speed in the background
    of the current (main) thread."""

    def __init__(self) -> None:
        self.costs = array("d")

    def sample(self, signum=None, frame=None) -> None:
        """Take one speed sample; also the SIGALRM handler."""
        self.costs.append(sample_cost())

    def __enter__(self) -> "SpeedMeter":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.costs)

    def normalise(self, elapsed: float, first: int, last: int) -> float:
        """Normalised seconds of an interval of ``elapsed`` raw seconds
        during which samples ``first`` to ``last - 1`` were taken.  Call it
        once MARGIN samples after the interval exist."""
        spent = sum(self.costs[first:last])
        bracket = self.costs[max(first - MARGIN, 0):last + MARGIN]
        return max(elapsed - spent, 0.0) * REFERENCE_S * len(bracket) / sum(bracket)
