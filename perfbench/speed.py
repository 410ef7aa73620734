"""Machine-speed calibration for the benchmark's timings.

The host this benchmark runs on is shared: for tens of seconds at a time it
runs the same Python code 20-60% slower, so two runs of the same op minutes
apart differ by more than any bound worth setting, however many samples each
run takes.  A slowdown of the host slows all interpreted code alike, so the
benchmark also times a fixed pure-Python kernel, defined here and not in the
library, next to every op, and reports each op's CPU time scaled by how much
slower than ``REFERENCE_S`` the kernel ran at that moment.  Times are thus in
seconds of a machine on which the kernel takes ``REFERENCE_S``; a change to
the library moves them in full, a change in the host's speed does not.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import process_time

# CPU seconds the kernel takes at the reference speed: about its median on a
# quiet 2-core Intel Xeon (Sapphire Rapids) under Python 3.11.  It sets the
# unit of every reported time and must not change once results exist.
REFERENCE_S = 0.002
KERNEL_N = 6000
WINDOW = 7  # kernel samples whose median gives the current speed


def kernel(n: int = KERNEL_N) -> int:
    """Fixed interpreted work of the library's kind: small-int arithmetic,
    tuple keys and dict updates."""
    d: dict = {}
    for i in range(n):
        key = ((i * 7919) % 10007, i & 15)
        d[key] = d.get(key, 0) + (i * i) % 97
    return len(d)


def kernel_seconds() -> float:
    t0 = process_time()
    kernel()
    return process_time() - t0


class Meter:
    """Tracks the host's current speed from recent kernel timings."""

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=WINDOW)
        self.history: list[float] = []
        for _ in range(WINDOW):
            self.sample()

    def sample(self) -> None:
        t = kernel_seconds()
        self.recent.append(t)
        self.history.append(t)

    def factor(self) -> float:
        """Multiplier from CPU seconds now to reference seconds."""
        return REFERENCE_S / statistics.median(self.recent)
