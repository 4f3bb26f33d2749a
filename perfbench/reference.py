"""Host-speed reference for the end-to-end timings.

The benchmark runs on shared hosts whose speed drifts by tens of percent
from one minute to the next, with CPU time tracking wall time, so no
statistic over one run's own timings can tell a slower program from a
busier host.  A `Reference` is a fixed pure-Python computation, a
breadth-first search over a fixed random graph in the style of the
library's routing, that is timed at regular intervals between `embed`
calls.  Its median time over a run says how fast the host ran the benchmark
during that run; `scale()` turns the run's wall times into times at the
speed where the reference takes `REFERENCE_MS`.  The reference does not
touch the library, so a change to the library moves the scaled times just
as it moves the wall times.
"""

from __future__ import annotations

import random
import statistics
from collections import deque
from time import perf_counter

# The reference's median time on the 2-core x86-64 host the benchmark was
# tuned on, when that host was quiet; scaled times are wall times on a host
# running that fast.
REFERENCE_MS = 0.8
# At most one sample per EVERY_S of wall time: about 2% of a run.
EVERY_S = 0.05
NODES = 2000
DEGREE = 4


class Reference:
    """Times the reference at most once per EVERY_S of wall time."""

    def __init__(self):
        rng = random.Random(20220209)
        self._adj = [[rng.randrange(NODES) for _ in range(DEGREE)] for _ in range(NODES)]
        self.samples: list[float] = []
        self.spent = 0.0    # wall seconds spent in the reference, for subtraction
        self._next = 0.0

    def _search(self) -> int:
        parent = {0: None}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        return len(parent)

    def sample(self) -> None:
        start = perf_counter()
        self._search()
        end = perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        self._next = end + EVERY_S

    def maybe_sample(self) -> None:
        if perf_counter() >= self._next:
            self.sample()

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3

    def scale(self) -> float:
        """Factor from this run's wall times to reference-speed times."""
        return REFERENCE_MS / self.median_ms()
