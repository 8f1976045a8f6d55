"""The speed of the machine, sampled while the workload runs.

On a shared host the speed of a core changes from one second to the next,
often by half, when a neighbour starts or stops work on the same physical
core.  A raw wall time then measures the neighbour as much as the program.
``SpeedMeter`` samples the speed throughout a timed call: a timer signal
every ``INTERVAL_S`` seconds runs a fixed pure-Python loop (``_spin``) and
records how long it took.  The loop shares no code with hetcache, so no
change to the program can change what it measures.

A call's reference time is its wall time, less the time spent in the
samples, multiplied by the mean measured speed: the time the call would
have taken had the machine run at the reference speed throughout.  The
reference speed is the one at which ``_spin`` takes ``REFERENCE_SPIN_S``;
it is a fixed constant, so reference times of different runs, and of
different commits on the same machine, compare directly.

Signal handlers run between bytecodes of the main thread.  hetcache's
integrands are Python callbacks, so samples arrive throughout a call; a
call with no sample inside is covered by the samples taken at its start
and end.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.05
SPIN_ITERATIONS = 1000
# _spin's time at the reference speed: about its fastest on a 2-vCPU Intel
# Xeon VM with an idle neighbour core, Python 3.11
REFERENCE_SPIN_S = 7.0e-5


def _spin(n: int) -> float:
    s = 0.0
    x = 0.5
    for i in range(n):
        x = x * 1.0000001 + 1e-9
        s += math.sqrt(x) if i & 1 else x
    return s


class SpeedMeter:
    """Samples the machine's speed while installed; ``measure(fn)`` times
    one call and returns its wall time and its reference time."""

    def __init__(self) -> None:
        self.samples = []  # (start, cost in seconds, speed relative to the reference)

    def sample(self, *_) -> None:
        # two passes: the faster is the one that found the loop in the caches
        # and was not interrupted
        start = time.perf_counter()
        _spin(SPIN_ITERATIONS)
        mid = time.perf_counter()
        _spin(SPIN_ITERATIONS)
        end = time.perf_counter()
        fastest = min(mid - start, end - mid)
        self.samples.append((start, end - start, REFERENCE_SPIN_S / fastest))

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn, *args):
        """Run ``fn(*args)``; return (output, wall seconds, reference seconds)."""
        self.sample()
        first = len(self.samples) - 1
        start = time.perf_counter()
        output = fn(*args)
        end = time.perf_counter()
        self.sample()
        taken = self.samples[first:]
        inside = sum(cost for t, cost, _ in taken if start <= t < end)
        speed = sum(v for _, _, v in taken) / len(taken)
        return output, end - start, (end - start - inside) * speed
