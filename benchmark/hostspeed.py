"""Host-speed gauge: a fixed pure-Python loop timed during the measured region.

On a shared machine the same single-threaded code runs up to a third faster
or slower from one minute to the next, while process CPU time still equals
wall time: the drift is in the host's speed, not in scheduling.  Longer runs
do not average it out, because the slow and fast phases last tens of seconds.

The gauge runs a fixed reference loop every ``INTERVAL_S`` seconds from a
``SIGALRM`` handler, in the measured process and thread itself, so each
probe sees the speed of the core the work runs on at that moment.  The
slowdown of an interval is the mean probe time around it over the
probe's nominal time, and :meth:`SpeedGauge.seconds` divides the work time
in an interval by that slowdown.  The result is the time the work would
take at the nominal speed of the reference host; the probes themselves are
excluded.  Probing takes about 5% of the region.
"""
from __future__ import annotations

import signal
import statistics
import time

# Probes of about 25 ms every half second.  Probes of 2.5 ms every 50 ms
# tracked only about half of the workloads' slowdown (in log scale).
PROBE_ITERATIONS = 200_000
# Typical probe time on the reference host (2 cores, Python 3.11.7).
NOMINAL_PROBE_S = 0.025
INTERVAL_S = 0.5
SMOOTHING = 3  # probes on each side of an interval that set its slowdown


def reference_loop(iterations: int) -> int:
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return acc


class SpeedGauge:
    """Context manager that probes host speed while the region runs."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []
        self._slowdowns: list[float] = []

    def probe(self, *_) -> None:
        start = time.perf_counter()
        reference_loop(PROBE_ITERATIONS)
        self.probes.append((start, time.perf_counter()))

    def __enter__(self) -> "SpeedGauge":
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()
        durations = [end - start for start, end in self.probes]
        self._slowdowns = [
            statistics.fmean(durations[max(0, k - SMOOTHING + 1): k + SMOOTHING + 1])
            / NOMINAL_PROBE_S
            for k in range(len(durations) - 1)
        ]

    def slowdown(self) -> float:
        """Mean slowdown over the whole region (1.0 at nominal speed)."""
        return statistics.fmean(self._slowdowns)

    def seconds(self, start: float, end: float) -> float:
        """Time ``[start, end]`` would take at nominal speed, probes excluded."""
        total = 0.0
        for k, slow in enumerate(self._slowdowns):
            lo = max(start, self.probes[k][1])
            hi = min(end, self.probes[k + 1][0])
            if hi > lo:
                total += (hi - lo) / slow
        return total
