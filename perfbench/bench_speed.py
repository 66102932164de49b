"""Host-speed gauge that scales the offline workloads' times to a fixed speed.

On a shared host the same single-threaded code runs up to a third slower
for tens of seconds at a time, while the neighbours are busy: one fixed
Table 2 split took 0.67 s in one 10-s window and 1.08 s in another, with
process CPU time tracking wall time (the slowdown is not steal time).  A
fixed pure-Python probe run between units of work slows down by the same
share (the split/probe ratio stayed within ±4% over those windows), so

    scaled seconds = raw seconds x NOMINAL_PROBE_S / probe seconds

estimates what the work would have taken at the probe's nominal speed.
The probe is the benchmark's own code, so no change to the program can
move it.  Probe time is left out of every scaled interval.

Examples::

    >>> ticks = iter([0.0, 1.0, 3.0, 4.0])
    >>> gauge = SpeedGauge(clock=lambda: next(ticks), probe=lambda: 2 * NOMINAL_PROBE_S)
    >>> gauge.probe(); gauge.probe()
    >>> gauge.scaled(1.0, 3.0)  # two raw seconds at half speed
    1.0
"""

from __future__ import annotations

import time
from typing import Callable

#: Iterations of the probe loop; about 6 ms on a quiet 2-core x86-64 host.
PROBE_LOOPS = 60_000
#: The probe's time at the nominal speed the scaled times refer to.
NOMINAL_PROBE_S = 0.006
#: Repeats per probe; the fastest counts, so one interrupt does not.
PROBE_REPEATS = 3
#: Seconds of work between probes.
PROBE_EVERY_S = 0.5


def probe_loop() -> float:
    """Seconds for the fastest of :data:`PROBE_REPEATS` fixed pure-Python loops."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


class SpeedGauge:
    """Probes the host's speed during a run and scales intervals by it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 probe: Callable[[], float] = probe_loop,
                 every: float = PROBE_EVERY_S) -> None:
        self.clock = clock
        self._probe = probe
        self.every = every
        #: ``(start, end, probe seconds)`` of each probe, in time order.
        self.marks: list[tuple[float, float, float]] = []

    def probe(self) -> None:
        """Run one probe now."""
        start = self.clock()
        seconds = self._probe()
        self.marks.append((start, self.clock(), seconds))

    def maybe_probe(self, *_args: object, **_kwargs: object) -> None:
        """Probe if :attr:`every` seconds have passed since the last probe."""
        if not self.marks or self.clock() - self.marks[-1][1] >= self.every:
            self.probe()

    def factors(self) -> list[float]:
        """Nominal over measured probe time, per probe (above 1: a fast host)."""
        return [NOMINAL_PROBE_S / seconds for _, _, seconds in self.marks]

    def scaled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` outside probes, each scaled by the mean
        speed of the probes on either side of it."""
        if not self.marks:
            raise ValueError("no probe taken")
        factors = self.factors()
        # Gaps between probes, with the speed of their two neighbours; the
        # time before the first and after the last probe uses the nearest.
        gaps = [(float("-inf"), self.marks[0][0], factors[0])]
        for i in range(len(self.marks) - 1):
            gaps.append((self.marks[i][1], self.marks[i + 1][0],
                         (factors[i] + factors[i + 1]) / 2.0))
        gaps.append((self.marks[-1][1], float("inf"), factors[-1]))
        total = 0.0
        for gap_start, gap_end, factor in gaps:
            overlap = min(end, gap_end) - max(start, gap_start)
            if overlap > 0:
                total += overlap * factor
        return total
