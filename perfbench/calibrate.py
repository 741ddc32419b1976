"""Fixed reference tasks, timed between operations, that put the timings of
a run on a steady scale.

The machine this benchmark was written on runs at one of several speeds
for seconds to minutes at a time (a fixed loop takes 48 or 95 us depending
on the moment), so a 20-second run can fall wholly in one regime, and raw
timings of the same code differed by up to 1.6x between runs.  A reference
task that does the same kind of work as the operations slows down with
them, so every operation's wall time is scaled by the task's nominal time
over the median of its timings taken near the operation: a time reads as
it would on a machine where the reference task takes its nominal time.
The tasks are the benchmark's own and never change with the program: a
faster program gives smaller scaled times, a busier machine does not.

Three tasks, each nominally about its time in the machine's fast state;
each workload uses the one whose timings followed its operations' most
closely:
- "numpy" (50 us): small numpy ufuncs driven from a Python loop, the mix
  that scalar quadrature and gamma expectations are made of
  (route-matrix, identity-forms);
- "bulk" (50 us): numpy ufuncs over a 15000-element array, like the
  samplers and Monte Carlo estimates over 10^5 draws (monte-carlo);
- "process" (125 ms): a fresh `python -c "import numpy"`, interpreter start
  and imports like a CLI invocation or a set-up (cli, and the set-up
  probes of every workload).
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

# The reference timings that set an operation's scale are those that
# started within this many of its own lengths before or after it (at
# least HALF_WINDOW_S), so that a long operation, which runs through many
# short swings of speed, is scaled by their median over a span as long ...
SPAN_LENGTHS = 10
HALF_WINDOW_S = 1.0
# ... and at least this many of the nearest ones.
NEAREST = 9

_X = np.linspace(0.01, 5.0, 15)
_Z = np.linspace(0.0, 1.0, 15000)


def numpy_loop() -> float:
    s = 0.0
    for _ in range(12):
        s += float(np.sum(np.exp(-_X) * np.log(_X)))
    return s


def bulk_loop() -> float:
    return float(np.log1p(np.exp(-_Z)).sum())


def process_start() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)


# name -> (task, nominal time in seconds: the scale that times are put on)
TASKS = {"numpy": (numpy_loop, 50e-6), "bulk": (bulk_loop, 50e-6),
         "process": (process_start, 0.125)}


class Calibration:
    """Timings of one reference task in time order, and the scale they give."""

    def __init__(self, task: str) -> None:
        self.name = task
        self.task, self.ref = TASKS[task]
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self, count: int) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            self.task()
            self.starts.append(t0)
            self.durations.append(time.perf_counter() - t0)

    def factor(self, start: float, end: float) -> float:
        """The nominal time over the median reference time near [start, end]."""
        half = max(HALF_WINDOW_S, SPAN_LENGTHS * (end - start))
        lo = bisect.bisect_left(self.starts, start - half)
        hi = bisect.bisect_right(self.starts, end + half)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.starts, start)
            lo = max(0, min(mid - NEAREST // 2, len(self.starts) - NEAREST))
            hi = lo + NEAREST
        return self.ref / statistics.median(self.durations[lo:hi])

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` of wall time beginning at ``start``, on the nominal scale."""
        return seconds * self.factor(start, start + seconds)
