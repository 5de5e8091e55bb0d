"""Host-speed calibration: the benchmark's fixed reference task.

The machines this benchmark runs on share their cores; over a minute
their speed for the same Python work moves by ±20%, far more than the
changes the benchmark must resolve. The benchmark therefore runs a
fixed reference task next to every timed op and states each time at a
reference speed::

    normalized = measured * REFERENCE_S / reference_task_seconds

where the reference task's seconds are the median of its two runs
before and two runs after the op (or the part of an op). The task is
the benchmark's own code and calls nothing in ``repro``, so a change
to the program moves the normalized numbers and a change in host
speed mostly does not. It
resembles the program's hot path: regex-matching strace-shaped lines,
splitting arguments, parsing integers, counting in a dict and sorting
tuples. It runs with the garbage collector off, so the size of the
program's heap does not change its cost.
"""

from __future__ import annotations

import gc
import random
import re
import statistics
import time

#: Seconds the reference task takes at the reference speed (its median
#: on a 2-vCPU Intel Xeon at 2.1 GHz under Python 3.11).
REFERENCE_S = 0.070

_CALLS = ("read", "write", "openat", "lseek", "close")
_LINE = re.compile(r"^(\d+)\s+(\d\d):(\d\d):(\d\d)\.(\d+)\s+(\w+)\((.*)\) "
                   r"= (-?\d+) <(\d+)\.(\d+)>$")


def _lines() -> list[str]:
    rng = random.Random(0)
    lines = []
    for i in range(12000):
        call = rng.choice(_CALLS)
        lines.append(
            f"{20000 + i % 96}  09:{i % 60:02d}:01."
            f"{rng.randrange(10**6):06d} {call}(3</p/scratch/ssf/test."
            f"{i % 7}>, ..., {rng.randrange(1 << 20)}) = "
            f"{rng.randrange(1 << 20)} <0.{rng.randrange(10**6):06d}>")
    return lines


_LINES = _lines()


def reference_task() -> float:
    """Run the reference task once; return its seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        totals: dict[tuple[str, str], int] = {}
        rows = []
        for line in _LINES:
            match = _LINE.match(line)
            args = match.group(7).split(", ")
            key = (match.group(6), args[0])
            dur = int(match.group(9)) * 1_000_000 + int(match.group(10))
            totals[key] = totals.get(key, 0) + dur
            rows.append((int(match.group(1)), key, int(match.group(8)),
                         dur))
        rows.sort()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Reference-task runs in order; samples refer to them by epoch."""

    def __init__(self) -> None:
        self.runs: list[float] = []

    def mark(self) -> int:
        """Run the task; return the epoch of the samples that follow."""
        self.runs.append(reference_task())
        return len(self.runs) - 1

    @property
    def epoch(self) -> int:
        return len(self.runs) - 1

    def factor(self, epoch: int) -> float:
        """Scale for a time measured between runs ``epoch`` and
        ``epoch + 1``: the reference over the median of the two runs
        before and the two after it. One 70 ms run catches transient
        states of the host; four smooth them over a span closer to an
        op's length."""
        around = self.runs[max(epoch - 1, 0):epoch + 3]
        return REFERENCE_S / statistics.median(around)
