"""Host speed probe: how fast this core runs right now.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within minutes, as other tenants load the same cores and caches.  A timed
round of the program slows down with the host, so a run's wall times say
as much about the host as about the program.

While a probe is active, an interval timer interrupts the process every
:data:`INTERVAL_S` seconds.  The signal handler times a fixed interpreter
loop and, for workloads that do array work, one pass over a buffer twice
the size of a core's L2 cache.  Both run on the same core and at the same
moment as the program's own work.  :meth:`HostSpeed.scale` turns the
probes taken during an interval into a factor: the quiet host's probe
times (:data:`NOMINAL_PY_S`, :data:`NOMINAL_ARRAY_S`) over the median
probe times of the interval, mixed by the workload's array share.  A wall
time multiplied by it reads as it would on the quiet host.

The probes take 1–2 % of the process's time; that share is part of every
timed interval, on every commit alike.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Seconds between two probes.
INTERVAL_S = 0.05
#: Iterations of the interpreter probe loop.
PROBE_LOOPS = 3000
#: float64 elements of the array probe's buffer: 4 MiB.
ARRAY_ELEMENTS = 1 << 19
#: Median probe times on a quiet host: a 2-core Xeon (Sapphire Rapids,
#: KVM guest) with nothing else running on its cores.
NOMINAL_PY_S = 0.45e-3
NOMINAL_ARRAY_S = 0.47e-3


def _py_probe() -> None:
    table, acc = {}, 0.0
    for i in range(PROBE_LOOPS):
        table[i & 255] = acc
        acc += (i * 0.5) % 7.0


class HostSpeed:
    """Probes taken every :data:`INTERVAL_S` seconds while active.

    ``array_share`` is the share of the workload's time spent in array
    work; the array probe runs only if it is above 0.
    """

    def __init__(self, array_share: float = 0.0) -> None:
        self.array_share = array_share
        self._buffer = None
        #: End time of every probe, in time order, and its two timings.
        self.ends: list[float] = []
        self.py_s: list[float] = []
        self.array_s: list[float] = []

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _py_probe()
        t1 = time.perf_counter()
        if self._buffer is not None:
            self._buffer.sum()
        t2 = time.perf_counter()
        self.ends.append(t2)
        self.py_s.append(t1 - t0)
        self.array_s.append(t2 - t1)

    def __enter__(self) -> "HostSpeed":
        if self.array_share > 0:
            import numpy as np

            self._buffer = np.ones(ARRAY_ELEMENTS)
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Factor for a wall time measured over ``[start, end]``.

        The inverse of the interval's slowdown against the quiet host:
        each probe kind's median time over its nominal time, weighted by
        the share of the workload's time that kind of work takes.  Uses
        the probes that ended inside the interval, or the nearest one if
        none did.
        """
        if not self.ends:
            raise RuntimeError("no host speed probe was taken")
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        if lo == hi:
            lo = min(lo, len(self.ends) - 1)
            hi = lo + 1
        slowdown = (1 - self.array_share) * statistics.median(self.py_s[lo:hi]) / NOMINAL_PY_S
        if self.array_share > 0:
            slowdown += self.array_share * statistics.median(self.array_s[lo:hi]) / NOMINAL_ARRAY_S
        return 1.0 / slowdown
