"""Times that the host's other tenants do not move.

The benchmark runs on a shared 2-CPU host.  Each CPU runs either at full
speed or about 1.85x slower, switching every 0.1 s to a few seconds as
other tenants come and go, so a step's time in seconds varies by up to
2x from pass to pass and from run to run.  :func:`measure` therefore
also measures how fast the CPU is while the step runs: a timer signal
interrupts the step every :data:`INTERVAL_S` and times a fixed piece of
pure-Python work (the probe) in the step's own thread.  The step's
seconds, less the probes' time, times the mean probe *speed* over the
step is the step's cost in probe units; times :data:`NOMINAL_S` it is
seconds at a fixed nominal speed.  The probe uses no code of the
program, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Any, Callable, List, Tuple

#: The probe's fastest time on a 2-CPU x86-64 host (Python 3.11).  It
#: only scales normalized times; any constant would do.
NOMINAL_S = 0.0002

#: Wall time between probes during a step.
INTERVAL_S = 0.02

#: Probes right before and right after a step, for steps too short to
#: be interrupted.
EDGE_PROBES = 3


def _work() -> int:
    table = {}
    for i in range(400):
        key = (i & 1023, i >> 3, "s%d" % (i & 63))
        table[key] = table.get(key, 0) + i
    return sum(value for key, value in table.items() if key[0] & 1)


def _probe(samples: List[float]) -> None:
    # The collector stays off so that the program's live heap, which a
    # change to the program may grow or shrink, does not time the probe.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()


def measure(fn: Callable[[], Any]) -> Tuple[Any, float, float]:
    """Run ``fn``; return its result, its seconds and its cost.

    The seconds exclude the probes that interrupted it; the cost is
    those seconds times the mean of ``1 / probe time``, i.e. the work
    done in probe units.  Multiply by :data:`NOMINAL_S` for seconds at
    nominal speed.  Call from the main thread only.
    """
    samples: List[float] = []
    for _ in range(EDGE_PROBES):
        _probe(samples)
    edge = len(samples)
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: _probe(samples))
    try:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, previous)
    seconds = elapsed - sum(samples[edge:])
    for _ in range(EDGE_PROBES):
        _probe(samples)
    return result, seconds, seconds * statistics.fmean(1.0 / s for s in samples)
