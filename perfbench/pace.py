"""The host's pace while a call runs, so that times can be stated at one
reference pace.

The benchmark shares a host whose speed drifts by tens of percent over
minutes: the same warm motor call takes 1.2 s at one time and 1.8 s a
minute later, with the CPU fully its own (steal time stays near 1%).  Ten
runs spread over several minutes then measure the host more than the code.

A timer signal runs a short kernel of fixed work every ``INTERVAL_S`` of wall
time while a call is being timed.  The kernel is a Python integer loop and a
chain of small numpy products: single-threaded, a working set that fits in
the L1/L2 caches, and nothing from redsafe, so a change to the program cannot
change the kernel's work.  Its time tracks the speed of the calls: over 90
warm motor calls, a call's time and the median kernel time during it
correlated at 0.65, and a similar kernel timed between the calls of a
drifting period tracked their median over 10 s windows at 0.8 and over 30 s
windows at 0.9.  A call's net time is its wall time minus the time spent in
the kernel during it; multiplied by ``REF_KERNEL_S / median(kernel times)``
it becomes the time at the reference pace, at which the kernel takes exactly
``REF_KERNEL_S``.

Python runs a signal handler between bytecodes only, so the kernel never
interrupts a numpy or LAPACK routine; a long routine delays the tick.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, NamedTuple

import numpy as np

#: Wall seconds between two kernel runs while a call is timed.
INTERVAL_S = 0.2

#: Kernel seconds at the reference pace.  On a 2-vCPU Xeon VM at 2.1 GHz
#: (Python 3.11, numpy 2.4) the kernel took 4 to 7 ms.
REF_KERNEL_S = 0.005

_LOOP = 35_000
_PRODUCTS = 210
_M = np.random.default_rng(0).standard_normal((24, 24)) / 5.0


def kernel() -> float:
    """Fixed work; returns its wall seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += i * i % 7
    x = _M
    for _ in range(_PRODUCTS):
        x = np.tanh(x @ _M)
    return time.perf_counter() - t0


class Paced(NamedTuple):
    """A timed call: its result, its wall seconds without the kernel runs
    inside it, and the kernel's times."""
    result: Any
    net: float
    samples: list[float]


def scaled(seconds: float, samples: list[float]) -> float:
    """``seconds`` measured while the kernel took ``samples``, restated at the
    reference pace."""
    return seconds * REF_KERNEL_S / statistics.median(samples)


def burst(n: int) -> list[float]:
    """``n`` kernel runs back to back: the pace right now.  The pace swings
    for tens of milliseconds at a time, so a burst that stands for a longer
    interval needs about 100 runs."""
    return [kernel() for _ in range(n)]


def timed(fn, *args) -> Paced:
    """Call ``fn(*args)`` with the kernel ticking every ``INTERVAL_S``.  A call
    shorter than one interval gets a short burst after it, so that it always
    has a pace.  Exceptions propagate after the timer is stopped."""
    samples: list[float] = []
    busy = False

    def tick(_signum, _frame):
        nonlocal busy
        if busy:
            return
        busy = True
        try:
            samples.append(kernel())
        finally:
            busy = False

    old = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        # stop the timer before reading the clock: a tick that ran is then
        # inside both the wall time and the samples
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, old)
    return Paced(result, wall - sum(samples), samples or burst(5))
