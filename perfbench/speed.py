"""The machine's current speed, from a fixed piece of reference work.

On a shared VM other tenants slow everything this process runs by up to
2x, in stretches that last from seconds to minutes, so raw times from runs
a few minutes apart disagree by 20-40%.  The harness therefore runs the
reference work between requests (at most every ``INTERVAL_S`` seconds,
and around every request longer than that) and reports each request's time
scaled to the reference speed:

    scaled = measured * REFERENCE_S / (reference time around the request)

where the reference time is the median of the samples taken from
``WINDOW_S`` seconds before the request to ``WINDOW_S`` seconds after it
(at least the nearest sample on each side); one sample alone is too noisy.
The reference work does not use bhfix, so a change to the program cannot
move it.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

# Time of one reference_work() call at the reference speed: the fast state
# of the 2-vCPU VM the baseline in README.md was measured on.
REFERENCE_S = 0.008
INTERVAL_S = 0.25
WINDOW_S = 1.0


def reference_work() -> int:
    """Interpreter-bound work like the program's: a memo keyed by tuples,
    recursion, small-object allocation and a keyed sort."""
    memo = {}

    def walk(a, b):
        if a == 0 or b == 0:
            return 1
        key = (a, b)
        value = memo.get(key)
        if value is None:
            value = (walk(a - 1, b) + walk(a, b - 1)) % 1000003
            memo[key] = value
        return value

    total = walk(70, 70)
    ranked = sorted(((i * 7919) % 1009, i) for i in range(4000))
    return total + ranked[-1][1]


class SpeedLog:
    def __init__(self):
        self.times: list[float] = []  # midpoint of each sample
        self.seconds: list[float] = []  # its duration

    def sample(self) -> None:
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.seconds.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the reference time around [start, end]."""
        first = bisect.bisect_left(self.times, start - WINDOW_S)
        last = bisect.bisect_right(self.times, end + WINDOW_S)
        # Widen to the nearest sample on each side of the interval.
        first = min(first, max(bisect.bisect_right(self.times, start) - 1, 0))
        last = max(last, min(bisect.bisect_left(self.times, end), len(self.times) - 1) + 1)
        return REFERENCE_S / statistics.median(self.seconds[first:last])

    def median_s(self) -> float:
        return statistics.median(self.seconds)
