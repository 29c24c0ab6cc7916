"""The reference unit: a fixed stdlib-only loop that operation times are
divided by.

On a shared 2-core machine the speed of pure-Python code drifts by up to 2x,
both from one second to the next and in phases lasting seconds, so raw
seconds of one run do not repeat in the next.  The loop below does the same
kind of work as the program (``Fraction`` arithmetic, dict traffic keyed by
sign tuples, tuple slicing) and imports nothing from ``spinor_forge``, so a
change to the program cannot change it.

It is timed just before and just after every operation, and every
``PERIOD`` seconds during it (``Sampler``): two samples 3 s apart do not
tell how fast the machine was in between.  Measured on a 3 s operation
repeated for two minutes, the quartile spread of op/ref was 16 % with the
two bracketing samples alone (no better than raw seconds) and 5 % with
samples every 0.2 s.  An operation's time in ``ref`` units is its seconds,
less the time spent sampling, divided by the mean of its samples.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
import time
from fractions import Fraction
from typing import List

# Iterations of the loop body; about 20 ms on a 2-core Intel Xeon machine with
# CPython 3.11.  CHECKSUM is the loop's result, so a loop that silently did
# less work is caught.
ITERATIONS = 2600
CHECKSUM = Fraction(-3029, 120)
PERIOD = 0.2


def _loop() -> Fraction:
    table = {}
    acc = Fraction(0)
    key = (1, -1, 1, -1, 1, -1)
    for i in range(ITERATIONS):
        a = Fraction(i % 7 - 3, i % 5 + 1)
        b = Fraction(i % 11 - 5, i % 3 + 1)
        pos = i % 6
        key = key[:pos] + (-key[pos],) + key[pos + 1:]
        prev = table.get(key)
        table[key] = a * b + (prev if prev is not None and i % 4 else a)
        if i % 64 == 63:
            acc += sum(table.values(), Fraction(0))
            table.clear()
    return acc


def _children_alive() -> bool:
    """True if this process has a live child process (Linux /proc only)."""
    try:
        tids = os.listdir("/proc/self/task")
    except OSError:
        return False
    for tid in tids:
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                if fh.read().strip():
                    return True
        except OSError:
            continue
    return False


def _other_threads_alive() -> bool:
    if threading.active_count() != 1:
        return True
    try:
        return len(os.listdir("/proc/self/task")) != 1
    except OSError:
        return False


def _assert_alone() -> None:
    """A background thread or child would slow the reference loop and so
    flatter every ratio; refuse to measure while one is alive."""
    if _other_threads_alive():
        raise RuntimeError("another thread is alive while the reference loop runs")
    if _children_alive():
        raise RuntimeError("a child process is alive while the reference loop runs")


def reference_seconds() -> float:
    """Run the reference loop once and return its duration in seconds."""
    _assert_alone()
    # The collector would otherwise spend the loop's time on the program's
    # garbage.
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = _loop()
        t1 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    _assert_alone()
    if out != CHECKSUM:
        raise RuntimeError(f"reference loop returned {out}, not {CHECKSUM}")
    return t1 - t0


class Sampler:
    """Reference samples taken from a SIGALRM handler while an operation
    runs.  The handler runs in the main thread between bytecodes, so no
    other thread exists; the time it takes is recorded so that it can be
    taken out of the operation's time.  A period of 0 takes no samples."""

    def __init__(self, period: float = PERIOD) -> None:
        self.period = period
        self.samples: List[float] = []
        self.intervals: List[tuple] = []  # (start, end) of each handler run
        self.error: Exception = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        try:
            self.samples.append(reference_seconds())
        except RuntimeError as exc:  # raising here would fail the operation
            self.error = exc
        self.intervals.append((t0, time.perf_counter()))

    def __enter__(self) -> "Sampler":
        self.samples, self.intervals, self.error = [], [], None
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if self.error is not None and exc[0] is None:
            raise self.error

    def stolen(self, start: float, end: float) -> float:
        """Seconds of [start, end] spent in the handler."""
        return sum(max(0.0, min(b, end) - max(a, start)) for a, b in self.intervals)
