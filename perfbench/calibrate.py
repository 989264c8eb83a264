"""Fixed reference work that measures how fast the host runs right now.

The host's speed drifts by tens of percent within seconds as other
tenants load the shared cores.  The benchmark times this loop every
few milliseconds, also while a program call runs, and scales the call's
time by ``REFERENCE_NS`` over the mean loop time near it, so a slow
phase of the host does not read as a slow program.  The loop is the benchmark's own code,
imports nothing from the program and mixes the kinds of work the program
does: rational arithmetic, string and dict work, and integer loops.
"""

import bisect
import signal
import time
from fractions import Fraction

# Nominal loop time, the scale of the normalized figures: about the middle
# of the range the loop takes on the 2-CPU reference machine.
REFERENCE_NS = 300_000
# Sampling period and the window around a call whose samples set its speed
# factor; with coarser settings the spread of repeated identical calls
# grew from about 3% to 5-13% on the 2-vCPU reference machine.
SAMPLE_INTERVAL_S = 0.003
WINDOW_NS = 10_000_000


def _work() -> int:
    total = Fraction(0)
    for k in range(1, 9):
        total += Fraction(k, k + 7)
    counts = {}
    word = "AABABBAB"
    for shift in range(60):
        rotated = word[shift % 8:] + word[: shift % 8]
        key = min(rotated[i:] + rotated[:i] for i in range(8))
        counts[key] = counts.get(key, 0) + 1
    acc = 0
    for i in range(400):
        acc = (acc * 31 + i) & 0xFFFF
    return acc + len(counts) + total.numerator % 7


def reference_ns() -> int:
    """Wall time of one pass of the reference loop, in nanoseconds."""
    start = time.perf_counter_ns()
    _work()
    return time.perf_counter_ns() - start


class HostSpeed:
    """Times the reference loop every ``SAMPLE_INTERVAL_S`` from a SIGALRM timer.

    The handler runs between bytecodes of whatever the main thread is
    doing, so long program calls are sampled while they run; ``scale``
    gives a call's speed factor from the samples within ``WINDOW_NS`` of
    it and the time the handler took inside it, which the caller
    subtracts from the call's latency.
    """

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, _signum, _frame):
        start = time.perf_counter_ns()
        _work()
        self.starts.append(start)
        self.durations.append(time.perf_counter_ns() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start_ns, end_ns):
        """``(speed factor, sampling time inside [start_ns, end_ns])``."""
        lo = bisect.bisect_left(self.starts, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(self.starts, end_ns + WINDOW_NS)
        window = self.durations[lo:hi] or self.durations[-1:] or [REFERENCE_NS]
        first = bisect.bisect_left(self.starts, start_ns)
        last = bisect.bisect_right(self.starts, end_ns)
        inside = sum(self.durations[first:last])
        return REFERENCE_NS * len(window) / sum(window), inside
