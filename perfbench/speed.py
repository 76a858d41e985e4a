"""Host-speed probe: wall times in reference seconds.

On the 2-vCPU host this benchmark was tuned on, the host's speed drifts by
as much as ±30% over seconds to minutes: one cluster run took 3.4 to 5.5 s,
and the median run rate of one invocation spread by 30% (IQR over median)
across ten invocations.  CPU time tracks wall time, so the process cannot
see the slowdown, and a calibration loop run before or after a run does not
track it either.  The probe therefore samples the host *during* the timed
interval: every ``PERIOD_S`` wall seconds a SIGALRM handler times a fixed
pure-Python chunk.  The chunk's mean time over the interval, divided by
``REFERENCE_S``, is the host's slowdown for exactly that interval, and the
interval's wall time minus the probe's own time, divided by the slowdown,
is its length in reference seconds.  On that host this cut the spread of
the run-rate median from 30% to about 5%.

The handler touches nothing but its own samples, so it cannot change what
the simulation does; ``run.py`` checks every repeat's commit-log digest.
``selfcheck.py`` checks the other direction: work added to the program
slows reference seconds as much as raw wall time, so the probe does not
divide a slowdown the program causes out as host drift.
"""

from __future__ import annotations

import signal
import statistics
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator, List

#: Wall seconds between probe samples.
PERIOD_S = 0.02
#: The probe chunk's duration at reference speed.  Only sets the scale.
REFERENCE_S = 400e-6


#: The chunk's dict, made once: the chunk allocates no object the cyclic
#: garbage collector tracks, so it never sets off a collection whose cost
#: belongs to the program.
_TABLE: dict = {}


def _chunk() -> None:
    """A fixed amount of interpreter work: dict stores, arithmetic, str."""
    table = _TABLE
    table.clear()
    x = 0
    for i in range(1500):
        table[i & 255] = x
        x = (x * 31 + i) % 1_000_003
        str(x)


@dataclass
class Timing:
    """One timed interval."""

    #: Wall seconds, not counting the probe's own samples.
    wall_s: float = 0.0
    #: How long each probe sample took.
    probes: List[float] = field(default_factory=list)
    #: Most threads alive at any sample.
    threads: int = 1

    @property
    def reference_s(self) -> float:
        """``wall_s`` converted to reference seconds."""
        if self.threads > 1:
            # Another thread holding the GIL would slow the probe too, and
            # its work would be divided out as host slowdown.
            raise RuntimeError("the host-speed probe needs a single thread")
        return self.wall_s * REFERENCE_S / statistics.fmean(self.probes)


@contextmanager
def timed() -> Iterator[Timing]:
    """Time the ``with`` body, sampling host speed while it runs."""
    timing = Timing()

    def sample(_signum=None, _frame=None) -> None:
        begin = perf_counter()
        _chunk()
        timing.probes.append(perf_counter() - begin)
        timing.threads = max(timing.threads, threading.active_count())

    previous = signal.signal(signal.SIGALRM, sample)
    started = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield timing
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        timing.wall_s = perf_counter() - started - sum(timing.probes)
        signal.signal(signal.SIGALRM, previous)
        if not timing.probes:  # shorter than one period
            sample()
