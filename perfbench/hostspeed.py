"""Host-speed probe: rescale operation times to a reference host speed.

A shared host's speed drifts by up to 2x within a minute, far more than
the changes the benchmark must see.  While an operation runs, a
``SIGALRM`` timer interrupts it every :data:`INTERVAL_S` seconds and times
:func:`probe`, a fixed pure-Python loop of heap and dict work (the kind
of work the DES does).  The probe times over the operation say how
fast the host ran during it.  Dividing the operation's time by the mean
probe time, and multiplying by :data:`PROBE_REF_S`, gives the time the
operation would take on a host where the probe takes exactly that long.
The slowest probes are left out of the mean: a probe that was itself
interrupted says little about the speed of the work around it.

The probe touches no program state, so the outputs do not change; its own
time is taken out of the operation's wall and CPU times.
"""

from __future__ import annotations

import heapq
import math
import signal
import statistics
import time

#: Seconds between probes.
INTERVAL_S = 0.05
#: Probe time that defines the reference host speed.
PROBE_REF_S = 0.002
#: Loop iterations of one probe.
PROBE_ITERS = 1500
#: Share of the slowest probes left out of the mean.
SLOW_SHARE = 0.2


def probe() -> int:
    """A fixed amount of heap and dict work; returns a checksum."""
    heap: list[tuple[int, int]] = []
    table: dict[int, tuple[int, int]] = {}
    x = 12345
    for i in range(PROBE_ITERS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i))
        table[i & 1023] = (i, x)
        if len(heap) > 256:
            heapq.heappop(heap)
    return heap[0][0]


class HostSpeed:
    """Probes the host while it is started; one instance per process."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        c0 = time.process_time()
        probe()
        self.cpu.append(time.process_time() - c0)
        self.wall.append(time.perf_counter() - t0)

    def start(self) -> None:
        self.wall, self.cpu = [], []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Reference probe time over the mean probe time of the last run,
        its slowest :data:`SLOW_SHARE` left out."""
        kept = sorted(self.wall)[: math.ceil(len(self.wall) * (1 - SLOW_SHARE))]
        return PROBE_REF_S / statistics.fmean(kept)
