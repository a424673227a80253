"""A probe of the host's speed, to rescale timings to a fixed reference speed.

The benchmark runs on virtual CPUs that share their host.  How fast one of
them executes the same Python code changes by up to a factor of two, over
spans from a tenth of a second to about a minute, with process CPU time
following wall time; the other virtual CPU does not move with it.  So a
raw wall time says as much about the neighbours of a run as about the
program.

``Probe`` runs a small fixed piece of work (dict updates and reads
scattered over an 8 MiB array: the kinds of work the program does) on
a timer, every ``PERIOD_S`` seconds, in the benchmark's own thread, and
keeps each sample's duration.  ``rescale(start, end)`` takes the interval's
wall time, removes the time the probe itself spent in it, and multiplies by
``REF_PROBE_S`` over the mean probe duration within the interval: the
interval's time at the speed at which the probe takes ``REF_PROBE_S``.
Nothing about the probe depends on the program, so a change to the program
moves the rescaled time as it moves the wall time.
"""

from __future__ import annotations

import array
import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

#: Seconds between samples while the probe runs on its timer.
PERIOD_S = 0.05
#: Duration of one probe sample at the reference speed: a round figure
#: within what the probe takes while the program runs on a 2-vCPU host
#: (1.2 to 2.1 ms), so that rescaled seconds stay close to wall seconds.
REF_PROBE_S = 1.5e-3
#: Samples before an interval that stand in for it when it holds none.
FALLBACK_SAMPLES = 3
#: Probe samples taken around each bracketed call (see ``timed``).
BRACKET_SAMPLES = 2

_TABLE_LEN = 1 << 20
_READS = 4000
_DICT_STEPS = 1200


class Probe:
    """Timer-driven speed samples; see the module docstring."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20051108)  # fixed: the probe's work never varies
        self._table = array.array("q", rng.permutation(_TABLE_LEN).astype(np.int64).tobytes())
        self._reads = rng.integers(0, _TABLE_LEN, _READS).tolist()
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._running = False

    def _work(self) -> int:
        counts: dict[int, int] = {}
        total = 0
        for i in range(_DICT_STEPS):
            key = (i * 7919) % 4099
            counts[key] = counts.get(key, 0) + (i & 7)
            total += len(counts)
        table = self._table
        for i in self._reads:
            total += table[i]
        return total

    def sample(self) -> float:
        start = perf_counter()
        self._work()
        end = perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)
        return end - start

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
            self._running = False

    def rescale(self, start: float, end: float) -> float:
        """Seconds that [start, end] would take at the reference speed.

        A sample lies in the interval when it ends there: the timer's
        handler runs in this thread, so it cannot straddle ``start``.  Set-up
        takes samples through ``timed`` before any interval is rescaled.
        """
        lo = bisect.bisect_right(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = self.durations[lo:hi]
        busy = end - start - sum(inside)
        speed = inside or self.durations[max(0, hi - FALLBACK_SAMPLES):hi]
        return busy * REF_PROBE_S / statistics.fmean(speed)

    def timed(self, fn):
        """``fn()`` with the timer held off and samples taken just before and
        just after it; returns its result and its time at reference speed."""
        running = self._running
        if running:
            signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            before = [self.sample() for _ in range(BRACKET_SAMPLES)]
            start = perf_counter()
            result = fn()
            seconds = perf_counter() - start
            after = [self.sample() for _ in range(BRACKET_SAMPLES)]
        finally:
            if running:
                signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return result, seconds * REF_PROBE_S / statistics.fmean(before + after)
