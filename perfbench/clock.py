"""Benchmark time at a fixed reference speed of the host.

The benchmark shares its host with other work, and the speed of the host
changes from one minute to the next: while the host is busy the same
workload run takes 10-45% longer, and a tight interpreted loop up to 90%
longer.  Raw wall times of two sets of runs made minutes apart therefore
disagree by more than any bound a regression check can use.

A :class:`Clock` tracks that speed with a fixed calibration kernel, run
before and after every timed run and between the items of long runs, and
expresses every timed interval in *reference seconds*: its wall time
multiplied by ``REFERENCE / calibration``, where ``calibration`` is the
kernel's time around the interval.  With the host at full speed a
reference second is a wall second; with the host slowed, the interval
shrinks back by the slowdown the kernel saw.

A busy host slows different code unequally, so the kernel must slow like
the program does.  The program's time goes to vectorized NumPy work, and
a kernel of int64 sorts and table gathers on cache-sized arrays slowed
about as much as the workloads did, while tight interpreted loops slowed
twice as much and would overcorrect.  The match is not exact: from one
slow period to another the workloads slowed by 0.5 to 1.1 times the
kernel's slowdown (on a log scale).  The kernel is part of the
benchmark, not of the program, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: calibration kernel seconds at full speed on the 2-core x86-64 host of
#: the README baseline; a reference second is a wall second at that speed
REFERENCE = 0.0040

#: kernel repetitions per calibration; the calibration is their median
REPEATS = 3

#: a lap calibrates again only after this much wall time since the last
LAP_SECONDS = 0.25

_VALUES = np.random.default_rng(12345).integers(0, 1 << 16, 1 << 16, dtype=np.int64)
_OPERANDS = _VALUES[: 1 << 15]
_TABLE = np.random.default_rng(54321).integers(0, 1 << 20, 1 << 10, dtype=np.int64)


def kernel() -> int:
    """One fixed unit of work, half sorts and half table gathers."""
    values = _VALUES
    for _ in range(4):
        values = np.sort((values * 40503 + 1) & 0xFFFF)
    operands = _OPERANDS
    for _ in range(18):
        operands = ((operands * 40503 + _TABLE[operands & 1023]) >> 3) & 0xFFFF
    return int(values[-1] + operands[-1])


class Clock:
    """Calibrations on the wall-time line, and intervals measured against
    them.

    Call :meth:`calibrate` before and after the timed work, and
    :meth:`lap` at the boundaries of its items.  :meth:`seconds` converts a
    wall interval that lies between two calibrations into reference
    seconds; the calibrations' own time is left out.
    """

    def __init__(self) -> None:
        # (start, end, kernel seconds) of every calibration, in time order
        self.points: list[tuple[float, float, float]] = []

    def calibrate(self) -> float:
        """Time the kernel now; returns its median seconds."""
        start = time.perf_counter()
        samples = []
        for _ in range(REPEATS):
            tick = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - tick)
        seconds = statistics.median(samples)
        self.points.append((start, time.perf_counter(), seconds))
        return seconds

    def lap(self) -> None:
        """Calibrate if the last calibration is more than
        :data:`LAP_SECONDS` old."""
        if not self.points or time.perf_counter() - self.points[-1][1] >= LAP_SECONDS:
            self.calibrate()

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``.

        Each stretch between two calibrations counts at the mean kernel
        time of the two; time spent calibrating does not count.
        """
        total = 0.0
        for (_, after, before_seconds), (before, _, after_seconds) in zip(
            self.points, self.points[1:]
        ):
            overlap = min(end, before) - max(start, after)
            if overlap > 0:
                total += overlap * 2 * REFERENCE / (before_seconds + after_seconds)
        return total

    def speed(self) -> float:
        """Median host speed over the calibrations, as a share of the
        reference speed."""
        return statistics.median(REFERENCE / seconds for _, _, seconds in self.points)
