"""Drift-calibrated timing.

The speed of a shared virtual host drifts by up to a factor of two
within seconds, and raw wall time follows it.  A short reference kernel
of exact ``Fraction`` and integer arithmetic (standard library only,
nothing from ``arrcomp``) is timed at the start and end of every timed
region and, via an interval timer, every ``INTERVAL_S`` seconds inside
it.  Each stretch of work between two kernel samples is rescaled by
``NOMINAL_KERNEL_S / (mean of the two samples)``, so a calibrated second
is the time the work would take on a host where the kernel takes exactly
``NOMINAL_KERNEL_S``.  Time spent inside the kernel is excluded from
both raw and calibrated figures.

Sampling inside a region matters: bracketing alone cannot follow speed
changes during a command that runs for several seconds.  The kernel's
integer part sweeps a table of about half a megabyte, because a shared
cache slows the library's larger working sets more than it slows a
kernel that fits in the first-level cache.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Median kernel time on an idle 2-core x86-64 host, CPython 3.11.
NOMINAL_KERNEL_S = 0.0020
INTERVAL_S = 0.05

_perf = time.perf_counter


def make_table() -> list:
    """The integer table the kernel sweeps: 200 rows of 300 small ints."""
    return [[(i * 31 + j) % 200 for j in range(300)] for i in range(200)]


def reference_kernel(table: list) -> int:
    """Fixed exact workload: a Fraction loop, Gauss-Jordan elimination of
    a 7x8 Fraction matrix, and integer row operations across ``table``,
    close in character to the library's elimination, its Smith normal
    form and its object churn."""
    x = Fraction(0)
    for i in range(1, 60):
        x = x + Fraction(i, i + 7) * Fraction(3 * i + 1, 2 * i + 5)
    m = [
        [Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(8)]
        for i in range(7)
    ]
    for c in range(7):
        p = next((r for r in range(c, 7) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for r in range(7):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    acc = 0
    for r in range(0, len(table), 10):
        row = [3 * a - 2 * b for a, b in zip(table[r], table[(r + 7) % len(table)])]
        acc += row[r % len(row)]
    return x.numerator % 7 + len(m) + acc


class Clock:
    """Samples the reference kernel and converts raw time into calibrated
    time.  ``samples`` holds ``(start, end)`` perf-counter pairs, one per
    kernel run, in time order."""

    def __init__(self):
        self.table = make_table()
        self.samples: list[tuple[float, float]] = []
        self.kernel_total = 0.0

    def sample(self) -> int:
        """Time one kernel run now; returns the index of the sample."""
        start = _perf()
        reference_kernel(self.table)
        end = _perf()
        self.samples.append((start, end))
        self.kernel_total += end - start
        return len(self.samples) - 1

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def region(self, first: int, last: int) -> tuple[float, float, float]:
        """Raw seconds, calibrated seconds and median kernel seconds of the
        work between sample ``first`` and sample ``last`` (both brackets)."""
        raw = 0.0
        calibrated = 0.0
        kernels = []
        for (s0, e0), (s1, e1) in zip(
            self.samples[first:last], self.samples[first + 1 : last + 1]
        ):
            work = s1 - e0
            kernel = ((e0 - s0) + (e1 - s1)) / 2
            raw += work
            calibrated += work * NOMINAL_KERNEL_S / kernel
            kernels.append(e0 - s0)
        kernels.append(self.samples[last][1] - self.samples[last][0])
        kernels.sort()
        return raw, calibrated, kernels[len(kernels) // 2]
