"""Host-speed probe that scales each timing to a fixed reference speed.

A 2-vCPU cloud host runs the same code up to 1.7 times slower in phases
that last from seconds to minutes, and process CPU time slows as much as
wall time.  So every timed region is measured together with a probe: a
fixed piece of pure-Python ``Fraction`` and ``dict`` work, timed
EDGE_PROBES times just before and just after the region and, through
SIGALRM, every INTERVAL_S inside it.  The region's time without the probes
inside it, times REFERENCE_PROBE_S over the mean probe time, is the time
the region takes at the reference speed.  A change to the program moves the
region's time and not the probe's, so it shows in full; a slow phase of the
host moves both and cancels.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Mean probe time at the reference speed, close to the fast phase of the
# 2-vCPU Intel Xeon host (CPython 3.11.7) the benchmark was written on.
REFERENCE_PROBE_S = 100e-6
INTERVAL_S = 0.01
EDGE_PROBES = 5
SPIKE = 3.0


def probe() -> Fraction:
    total, table = Fraction(0), {}
    for i in range(1, 40):
        total += Fraction(1, i)
        table[i] = table.get(i - 1, 0) + i
    return total


class Meter:
    """Times a ``with`` block; ``scaled`` is its time at the reference speed."""

    def __init__(self):
        self.samples: list[float] = []
        self.inside = 0.0
        self.elapsed = 0.0

    def _sample(self) -> float:
        # A collection the probe's allocations would trigger is left to the
        # program, whose garbage it is.
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        probe()
        took = perf_counter() - start
        if enabled:
            gc.enable()
        self.samples.append(took)
        return took

    def _on_alarm(self, signum, frame) -> None:
        self.inside += self._sample()

    def __enter__(self) -> "Meter":
        for _ in range(EDGE_PROBES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_PROBES):
            self._sample()

    @property
    def factor(self) -> float:
        """Reference probe time over the mean probe time around the block.

        Samples over SPIKE times the median, a probe the process was
        descheduled in, are left out; slow phases (up to 1.7 times the fast
        one) are kept, and the mean weighs them by how long they lasted.
        """
        limit = SPIKE * statistics.median(self.samples)
        return REFERENCE_PROBE_S / statistics.fmean(
            x for x in self.samples if x <= limit)

    @property
    def probe_time(self) -> float:
        """Time spent in probes, inside the block and at its edges."""
        return sum(self.samples)

    @property
    def scaled(self) -> float:
        return (self.elapsed - self.inside) * self.factor
