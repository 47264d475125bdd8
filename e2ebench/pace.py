"""Wall time rescaled to a fixed host speed.

On a shared virtual machine the host's speed is not steady: a fixed
pure-Python loop runs up to twice as slow for seconds or tens of seconds
at a time, depending on what the neighbours do, and CPU time slows with
it.  A pass of several seconds then measures the neighbours as much as
the program.  :class:`PacedClock` therefore cuts the timed phase into
short segments with an interval timer and, at every cut, runs
:func:`reference_s` -- a fixed loop that never changes with the program.
Each segment's wall time is scaled by ``REFERENCE_S`` over the mean of
the reference readings at its two ends, so the sum is the phase's time on
a host that runs the reference loop in ``REFERENCE_S``.  The readings are
left out of the wall time.  A faster program still reads faster: the
reference loop is the benchmark's own code.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any

#: Reading of :func:`reference_s` the paced seconds are scaled to: about
#: what the loop takes on an idle 2-vCPU Xeon virtual machine.
REFERENCE_S = 0.004
#: Loop iterations of one reference run, and runs per reading.
_ITERATIONS = 20_000
_RUNS = 3


def _loop() -> int:
    # Interpreter work of the simulator's kind: integer arithmetic and a
    # dict of some ten thousand entries.
    table: dict = {}
    acc = 0
    for i in range(_ITERATIONS):
        key = (i * 2654435761) & 0xFFFFF
        table[key] = table.get(key, 0) + 1
        acc += key % 7
    return acc


def reference_s() -> float:
    """Median wall time of a few runs of the fixed reference loop."""
    times = []
    for _ in range(_RUNS):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def paced(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` of wall time between two reference readings, rescaled."""
    return seconds * REFERENCE_S / ((ref_before + ref_after) / 2)


class PacedClock:
    """Wall and paced seconds of the code run inside ``with PacedClock():``.

    A ``SIGALRM`` timer cuts the phase after every ``interval_s`` of timed
    wall time; the reference reading runs in the signal handler, between
    two bytecodes of the timed code.  The timer and the previous handler
    are restored on every way out of the block.
    """

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.wall = 0.0
        self.paced = 0.0
        self.cuts = 0
        self._ref = 0.0
        self._start = 0.0
        self._previous: Any = None

    def _cut(self) -> None:
        segment = time.perf_counter() - self._start
        ref = reference_s()
        self.wall += segment
        self.paced += paced(segment, self._ref, ref)
        self.cuts += 1
        self._ref = ref
        self._start = time.perf_counter()

    def _tick(self, *_: Any) -> None:
        # One-shot timer, re-armed after the reading, so that no tick can
        # land inside a reading however slow the host is.
        self._cut()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def __enter__(self) -> "PacedClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._ref = reference_s()
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._cut()
