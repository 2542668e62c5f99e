"""Host-speed sampling, to take the shared host's speed out of timings.

The host's CPU alternates between a fast mode and one about 1.5x slower,
for under a second to minutes at a time, so the same work can take 1.6x
longer in one run than in the next.  A `Sampler` times a fixed calibration
kernel from a SIGALRM handler every INTERVAL_S of wall time while the
program works.  Python runs the handler in the main thread between
bytecodes, so the samples interleave with the program's own work and see
the host at the same speed.  `normalize` turns a wall time into the time
the work would take at reference speed: the wall time less the samples'
own time, divided by how much slower than REFERENCE_S the kernel ran.

The kernel is scalar Python arithmetic with small numpy ops, the mix of
fracadrc's per-sample loop, import and CSV code.  It is the benchmark's own
fixed code and calls nothing of fracadrc, so a change to the program moves
normalized times as it moves the work.  This assumes the program runs in
one thread, as fracadrc does: a thread of its own running during a sample
would slow the kernel and not the work.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# the kernel's time in the fast mode of the host the benchmark was defined
# on (Intel Xeon, 2 vCPUs, Python 3.11); it sets the scale of normalized
# times, not their ratios
REFERENCE_S = 0.003


def kernel() -> float:
    s = 0.0
    a = np.zeros(16)
    for i in range(20000):
        s += (i * 0.5) % 3.0
        if i % 16 == 0:
            a = a + s
    return s + float(a[0])


class Sampler:
    """Times `kernel` every INTERVAL_S of wall time between `start` and
    `stop`; `samples` holds the times, in seconds."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)


def normalize(wall_s: float, samples: list[float]) -> float:
    """The time the work in `wall_s` would take at reference speed, from
    the samples taken during it; an interval too short to hold a sample is
    scaled by one kernel time taken now."""
    if not samples:
        t0 = time.perf_counter()
        kernel()
        return wall_s * REFERENCE_S / (time.perf_counter() - t0)
    work = wall_s - sum(samples)
    return work * REFERENCE_S / statistics.fmean(samples)
