"""Reference seconds: wall time corrected for the shared machine's speed.

On a shared host the same computation can take twice as long from one
minute to the next.  ``ReferenceClock`` samples the speed every PERIOD_S
seconds, from a SIGALRM handler, by timing a fixed kernel of small numpy
operations and Python arithmetic, the mix rootbranch runs.  Wall time
between two samples counts at the rate KERNEL_S / (the kernel's time), so
a reading is in seconds of a machine on which the kernel takes KERNEL_S.
The kernel's own time counts for nothing.  The kernel is the benchmark's,
so a change to rootbranch cannot move it.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

KERNEL_S = 0.010  # the kernel's time on the reference machine
PERIOD_S = 0.2
_NODES = np.exp(2j * np.pi * np.arange(64) / 64)


def _kernel() -> complex:
    acc = 0j
    for k in range(2400):
        w = _NODES * (1.0 + 1e-3 * k)
        v = (w * w - 0.5) * w + 0.25
        acc += complex(v[k % 64]) / (1.0 + abs(acc))
    return acc


class ReferenceClock:
    """While entered, ``now()`` reads reference seconds; not reentrant."""

    def __init__(self):
        self.ref = 0.0
        self.kernel_s: list[float] = []

    def __enter__(self):
        self._sample()
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def _sample(self) -> None:
        t0 = perf_counter()
        _kernel()
        self.last = perf_counter()
        self.rate = KERNEL_S / (self.last - t0)
        self.kernel_s.append(self.last - t0)

    def _tick(self, signum, frame) -> None:
        self.ref = self.now()
        self._sample()
        # re-armed only now, so a slow kernel never overlaps the next tick
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def now(self) -> float:
        while True:
            taken = len(self.kernel_s)
            value = self.ref + (perf_counter() - self.last) * self.rate
            if len(self.kernel_s) == taken:  # no tick came in between
                return value
