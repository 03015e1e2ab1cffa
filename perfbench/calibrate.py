"""Host speed calibration: a fixed pure-Python loop, timed next to each measurement.

On a small shared host the same code runs at different speeds from minute to
minute: on the 2-vCPU host the baseline was recorded on, a year-run iteration
took 0.49 s in one 20 s window and 0.91 s a minute later. The benchmark
therefore times this loop before and after every measured iteration (and
around every set-up import) and reports times in reference seconds:

    reference seconds = host seconds * REFERENCE_S / median(loop seconds)

i.e. what the host clock would read with the loop running at REFERENCE_S.
The loop is the benchmark's own code, so a change to the program moves the
host time and not the factor. Across 20 s windows of the same workload this
cut the spread of the median iteration time from 14-18 % to 3-6 %; a
pure-Python loop tracked all three workloads better than numpy kernels did.
Both the raw host seconds and the factor are printed next to the scaled
figures.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.0025  # the loop's time on the baseline host in its fast state
SAMPLES = 5


def _loop() -> float:
    s = 0.0
    for i in range(30_000):
        s = s + (i * 0.5 - 3.0) * 1e-3
        if s > 1e9:
            s = 0.0
    return s


def samples(n: int = SAMPLES) -> list[float]:
    """Host seconds of n runs of the loop."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        _loop()
        out.append(time.perf_counter() - t0)
    return out


def factor(loop_seconds: list[float]) -> float:
    """Reference seconds per host second, from loop timings taken alongside."""
    return REFERENCE_S / statistics.median(loop_seconds)
