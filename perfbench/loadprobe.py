"""The load probe: how much other tenants slowed the machine during a timing.

On a shared 2-core machine, other tenants slow the same computation by up to
2x, in stretches from under a second to minutes; the vCPU keeps running but
executes more slowly.  The probe is a fixed piece of exact rational
arithmetic, the kind of work equivab does, written with the standard library
only so that no change to equivab moves it.  While a pass runs, an interval
timer interrupts it every PERIOD_S and the signal handler times one probe,
so the probes sample the machine's speed evenly over the pass.  A set-up
runs in a child process, so the probes sample the machine just before and
just after it.

A timing of T seconds, sampled by probes taking p_i seconds, is reported as
T * REFERENCE_S * mean(1 / p_i): the probes' mean speed over the timing turns
T into the number of probes the machine could have run meanwhile, and
REFERENCE_S turns that back into seconds.  It is the timing's length on the
build machine at its least loaded.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.01  # one probe, about a millisecond, per 10 ms of wall time
# The probe's time on the build machine at its least loaded: the fastest
# probes of its runs took 0.90-0.96 ms.
REFERENCE_S = 0.0009

_MATRIX = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 4) for j in range(7)]
           for i in range(7)]


def _eliminate():
    """Reduced row echelon form of the fixed 7 x 7 rational matrix."""
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return m


class Sampler:
    """Times the probe from a SIGALRM handler while the `with` block runs.

    `times` holds every probe's time.  `spent` is their sum, and `clock()`
    is `time.perf_counter()` without it, so timings taken with `clock()`
    leave the probes out."""

    def __init__(self):
        self.times = []
        self.spent = 0.0

    def clock(self):
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _eliminate()
        took = time.perf_counter() - start
        self.times.append(took)
        self.spent += took

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def at_reference_speed(seconds, probes):
    """`seconds` of wall time, sampled by `probes`, in seconds of the build
    machine at its least loaded."""
    return seconds * REFERENCE_S * statistics.mean(1 / p for p in probes)
