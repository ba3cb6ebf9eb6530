"""Op times scaled to a reference machine speed.

On a shared host the speed of one vCPU swings by up to a factor of two
within seconds and drifts for minutes as neighbours come and go; the same
op, in the same process, then reads 0.6 s in one pass and 1.1 s in the
next. No estimator over raw times (median, minimum) removes a drift that
lasts a whole run. So while ops run, a SIGPROF handler fires every
INTERVAL_S of process CPU time and times PROBE_ROUNDS rounds of a fixed
piece of interpreter work, allocation-free so that it never triggers or
pays for the program's garbage collection. An op's time, less the probe
time spent inside it, is multiplied by REFERENCE_S over the mean probe
time around the op: a time in seconds at the speed where the probe takes
REFERENCE_S. The probes cost about 4% of the run and are not part of any
reported time.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from time import perf_counter

INTERVAL_S = 0.0025
PROBE_ROUNDS = 4
REFERENCE_S = 1e-4
MIN_SAMPLES = 8

_TABLE = [(i * 2654435761) & 1023 for i in range(64)]


def _step(acc: int, value: int) -> int:
    return (acc * 31 + value) & 0xFFFFF


def probe(rounds: int = PROBE_ROUNDS) -> int:
    """Fixed interpreter work: calls, branches, small-int arithmetic and
    list indexing; it creates no container objects."""
    acc = 7
    table = _TABLE
    for _ in range(rounds):
        for i in range(64):
            acc = _step(acc, table[i])
            if acc & 1:
                acc ^= i << 3
            else:
                acc += table[(acc >> 4) & 63]
    return acc


class SpeedProbe:
    """Probe samples taken while it is entered; mark() indexes them."""

    def __init__(self):
        self.durations = array("d")
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        probe()
        self.durations.append(perf_counter() - t0)

    def __enter__(self):
        self._sample(None, None)  # so that every span has a sample near it
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL if self._previous is None
                      else self._previous)
        return False

    def mark(self) -> int:
        return len(self.durations)

    def scaled(self, seconds: float, start: int, end: int) -> float:
        """seconds measured between mark() values start and end, less the
        probe time inside them, at the reference speed. The speed is the
        mean of the samples taken inside, widened on both sides to
        MIN_SAMPLES for work shorter than that many intervals, less the
        highest and lowest eighth. A mean, not a median: when the host
        flips between a fast and a slow state during an op, the op's time
        is the time-weighted mix of the two, where a median would pick one;
        the trim drops samples cut by a preemption that the op escaped."""
        durations = self.durations
        own = sum(durations[start:end])
        lo, hi = start, end
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(durations)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(durations))
        window = sorted(durations[lo:hi])
        cut = len(window) // 8
        speed = statistics.fmean(window[cut:len(window) - cut])
        return (seconds - own) * REFERENCE_S / speed
