"""The machine's pace, measured next to and inside each timed operation.

The host the benchmark runs on shares its cores with other machines, and the
speed it gives one process drifts by tens of percent over seconds to minutes.
The program's own time cannot tell that drift from a change to the program,
so the benchmark measures the drift on a fixed piece of pure-Python exact
arithmetic that never touches k3stab (a *try*, `one_try`) and reports every
time at a fixed reference pace:

    scaled = seconds * TRY_SECONDS / median(try times around and in the op)

Tries run EDGE_TRIES times before and after each operation, and every EVERY
seconds inside it from a SIGALRM handler, so a 5-second operation is paced by
what the machine did during those 5 seconds, not only at its ends.  Each
timed try follows an untimed one (`warm_try`).  The time
spent in the handler is taken out of the operation's time.  No thread or
subprocess is involved.  The median keeps a try that was preempted from
reading as a slow machine.
"""

from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

TERMS = 150
EDGE_TRIES = 5
EVERY = 0.1
# Median seconds of one_try() on the 2-vCPU host the benchmark was written
# on; it fixes the unit of every scaled time.
TRY_SECONDS = 0.0013


def one_try() -> float:
    """Seconds of TERMS steps of small-fraction arithmetic, with gc off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = 0
        for i in range(1, TERMS):
            q = Fraction(i % 97 + 1, i % 13 + 7) * Fraction(2 * i - 1, i % 5 + 11)
            acc += (q + Fraction(1, i % 7 + 2)).numerator
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def warm_try() -> float:
    """A try after an untimed one: right after the operation's own code the
    try's code and data are out of cache, and a cold try reads the cache,
    not the machine's pace."""
    one_try()
    return one_try()


def edge() -> list[float]:
    return [warm_try() for _ in range(EDGE_TRIES)]


def scale(seconds: float, tries: list[float]) -> float:
    return seconds * TRY_SECONDS / statistics.median(tries)


class Pacer:
    """Paces a sequence of operations; each edge is shared by the operation
    before it and the one after it."""

    def __init__(self):
        self.before = edge()
        self.inside: list[tuple[float, float, float]] = []  # (start, end, try seconds)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        seconds = warm_try()
        self.inside.append((start, perf_counter(), seconds))

    @contextmanager
    def sampling(self):
        """Take tries every EVERY seconds until the block ends."""
        self.inside = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY, EVERY)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def spent(self, start: float, end: float) -> float:
        """Handler time inside the interval [start, end]."""
        return sum(b - a for a, b, _ in self.inside if start <= a and b <= end)

    def finish(self, seconds: float) -> float:
        """`seconds` of the operation just sampled, at the reference pace."""
        after = edge()
        tries = self.before + [s for _, _, s in self.inside] + after
        self.before = after
        return scale(seconds, tries)
