"""Machine-speed sampling, to take the host's speed swings out of wall times.

The benchmark shares a few cores of a host whose speed swings for seconds
at a time: a fixed pure-Python loop takes up to twice as long in the slow
spells, and the spells come and go within a single ``proprep bench`` call.
While a ``Sampler`` is active, an interval timer interrupts the benchmark's
own process every ``INTERVAL_S`` of wall time, and the signal handler times
a fixed probe loop, which does no proprep work.  A timed call is then
reported in reference seconds: its wall time, less the probes that ran
inside it, multiplied by the mean probe speed around it relative to
``REFERENCE_PROBE_S``.  If proprep does less work, the reference seconds
fall by the same share as the wall seconds; if the host slows down, the
wall seconds grow but the probes slow down with them.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.02
PROBE_ITERATIONS = 1000
# The probe's time on the reference machine in its fast spells (a 2-vCPU
# cloud VM at 2.1 GHz, CPython 3.11); it only sets the scale of the figures.
REFERENCE_PROBE_S = 1.4e-4


def probe() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(PROBE_ITERATIONS):
        key = i & 63
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return total


class Sampler:
    """Probe timings taken on a timer signal while the sampler is active."""

    def __init__(self) -> None:
        self.ends: list[float] = []  # probe end times, increasing
        self.spans: list[float] = []  # probe durations
        self.cumulative: list[float] = [0.0]  # probe seconds before each probe

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        probe()
        ended = time.perf_counter()
        self.ends.append(ended)
        self.spans.append(ended - started)
        self.cumulative.append(self.cumulative[-1] + ended - started)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def own_seconds(self, start: float, end: float) -> float:
        """Wall seconds of [start, end] less the probes that ran inside it."""
        first = bisect.bisect_left(self.ends, start)
        last = bisect.bisect_right(self.ends, end)
        return end - start - (self.cumulative[last] - self.cumulative[first])

    def reference_seconds(self, start: float, end: float) -> float:
        """``own_seconds`` scaled to the reference probe speed.

        The probes taken inside the interval give its mean speed, with the
        one just before and the one just after it, so that an interval
        shorter than ``INTERVAL_S`` still has two.
        """
        first = max(bisect.bisect_left(self.ends, start) - 1, 0)
        last = min(bisect.bisect_right(self.ends, end) + 1, len(self.ends))
        speeds = [REFERENCE_PROBE_S / span for span in self.spans[first:last]]
        if not speeds:
            raise RuntimeError("no speed probe ran; the interval timer did not fire")
        return self.own_seconds(start, end) * sum(speeds) / len(speeds)
