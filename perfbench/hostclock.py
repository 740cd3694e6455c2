"""Host-speed sampling: timings reported at a reference host speed.

On a shared virtual host the CPU does not run at one speed.  On the
2-vCPU host this benchmark was tuned on, a fixed pure-Python loop took
either about 0.021 s or about 0.034 s, switching between the two every
10 to 60 seconds, on both vCPUs mostly at once.  A 20-second run that
lands in the slow state reads 1.6 times slower with no change to the
program, so raw wall times cannot be compared between runs.

:class:`HostClock` times a fixed spin (:func:`spin`) every
``PERIOD_S`` of wall time, from a ``SIGALRM`` handler.  Python runs the
handler on the main thread between bytecodes, so the samples interleave
with the measured work: when the host slows the work, it slows the
spin too.  A timed region is reported as::

    scaled = (wall - spin time inside it) * NOMINAL_SPIN_S / mean spin

The mean is over the spins inside the region, widened to at least
``MIN_SPAN_S`` around its middle so that short regions get enough
samples.  Spins longer than twice the median of those samples were
preempted, not slowed, and are left out of the mean.  The spin calls
nothing in ``src/``, so a change to the program moves the work, not the
yardstick.  Raw wall times stay in the results file next to the scaled
ones.

Workers and servers run in other processes and are not sampled; they
share the host state with the sampling process most of the time, and
their regions are scaled by the driver's samples.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from typing import List

#: Wall seconds between two spins.
PERIOD_S = 0.02
#: Shortest span of samples the mean spin of a region is taken over.
MIN_SPAN_S = 1.0
#: Seconds one :func:`spin` takes on the reference host speed: the fast
#: state of the 2-vCPU host the benchmark was tuned on (CPython 3.11).
NOMINAL_SPIN_S = 0.00026


def spin() -> int:
    """A fixed slice of interpreter work: dict and integer operations,
    the same kind the simulator does."""
    table: dict = {}
    total = 0
    for i in range(1500):
        key = (i * 7919) & 255
        table[key] = table.get(key, 0) + i
        total += key >> 3
    return total


class HostClock:
    """Samples host speed while active; scales wall-time regions.

    Use as a context manager around the measured work; call
    :meth:`scaled` with ``time.perf_counter()`` stamps taken inside it.
    """

    def __init__(self) -> None:
        #: Start stamp and duration of every spin, in time order.  The
        #: handler appends to ``spins`` first, so a reader interrupted
        #: by it never indexes past the end of ``spins``.
        self.starts: List[float] = []
        self.spins: List[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        spin()
        self.spins.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, start: float, end: float) -> List[float]:
        return self.spins[bisect.bisect_left(self.starts, start):
                          bisect.bisect_right(self.starts, end)]

    def mean_spin(self, start: float, end: float) -> float:
        """Mean unpreempted spin time around ``[start, end]``."""
        if not self.spins:
            raise RuntimeError("HostClock took no samples")
        widen = max(0.0, MIN_SPAN_S - (end - start)) / 2
        samples = self._between(start - widen, end + widen)
        if not samples:
            middle = bisect.bisect_left(self.starts, (start + end) / 2)
            samples = self.spins[max(0, middle - 2):middle + 2]
        limit = 2 * statistics.median(samples)
        kept = [value for value in samples if value <= limit]
        return sum(kept) / len(kept)

    def slowdown(self, start: float = -math.inf,
                 end: float = math.inf) -> float:
        """Mean spin time in ``[start, end]`` over the reference: 1.0 at
        the reference speed, about 1.6 in the slow state above."""
        return self.mean_spin(start, end) / NOMINAL_SPIN_S

    def scaled(self, start: float, end: float) -> float:
        """Seconds the region ``[start, end]`` would have taken at the
        reference host speed, without the spins inside it."""
        inside = sum(self._between(start, end))
        return ((end - start - inside) * NOMINAL_SPIN_S
                / self.mean_spin(start, end))
