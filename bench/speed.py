"""Host-speed probe: expresses wall time in seconds at a fixed reference speed.

The shared hosts this benchmark runs on switch between speed phases that last
seconds and differ by up to 1.6x; CPU time tracks wall time, so the drift is
the host's speed, not the scheduler.  A SIGALRM timer runs a fixed pure-Python
loop every ``PERIOD`` seconds in the measured thread itself and records how
long it took.  An interval's normalized duration is its wall duration times
the mean of ``REF_PROBE_S / probe`` over the probes taken in and around it,
i.e. the time the same work would take at the reference speed.  The probe
costs about 1 % of the run and never touches the program's state.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

#: Seconds between probes.
PERIOD = 0.02

#: Probe duration that defines one normalized second (a fast phase of a
#: 2-vCPU Xeon virtual machine).
REF_PROBE_S = 5.0e-5

#: Probes stretched beyond this many reference durations were interrupted
#: rather than slowed, so they are clipped.
CLIP = 3.0

#: Short intervals borrow probes from this many seconds on either side;
#: speed phases last seconds, so the neighbourhood shares the interval's speed.
MARGIN = 0.25


def _step(x: float, y: float) -> float:
    return math.fsum((x, -1e-9 * y)) if x > y else x


def probe() -> float:
    """Duration of one fixed unit of interpreter work, in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(400):
        acc += _step(i * 0.5, acc)
    return time.perf_counter() - start


def reference_ratio(durations: list[float]) -> float:
    """REF_PROBE_S / probe, averaged over probe durations."""
    clipped = [min(d, CLIP * REF_PROBE_S) for d in durations]
    return statistics.fmean(REF_PROBE_S / d for d in clipped)


class SpeedProbe:
    """Periodic in-thread speed samples while ``running``."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        duration = probe()
        self.times.append(time.perf_counter())
        self.durations.append(duration)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalized(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would take at the reference speed."""
        lo = bisect.bisect_left(self.times, start - MARGIN)
        hi = bisect.bisect_right(self.times, end + MARGIN)
        window = self.durations[lo:hi]
        if not window:
            window = [probe() for _ in range(5)]
        return (end - start) * reference_ratio(window)
