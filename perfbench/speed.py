"""Host CPU speed, sampled beside the benchmark on the core it runs on.

On a shared host a core's speed can change by up to ~1.75x, in
stretches from under a second to minutes and independently per core
(most likely another tenant busy on the same physical core; the guest
cannot see it).  Run to run, that moved a median latency by up to 40%.
So each run pins itself to one core, a :class:`SpeedSampler` child
process on the same core times a fixed pure-Python loop every 20 ms,
and a wall time is scaled by the mean speed factor sampled around it:
the time the same work takes at the reference speed.

The sampler measures its loop in thread CPU time, so the time it is
preempted by the benchmark does not count, only the core's speed.  It
takes about 1.5% of the core.  Run as a script it is the sampler itself:
``python3 speed.py INTERVAL_S`` prints ``ready`` once its data is built,
samples until its standard input closes, then prints
``[[monotonic_s, factor], ...]`` as one JSON line.
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

#: The calibration loop looks up this many scattered keys in a dict of
#: ``_TABLE_SIZE`` entries (about 30 MB), so that a sample also feels the
#: caches and memory bandwidth the benchmark shares with the host's other
#: tenants, not only the core's speed.
_LOOKUPS = 500
_TABLE_SIZE = 200_000

#: Thread CPU seconds of one calibration loop at the reference speed:
#: its usual time with CPython 3.11 on a 2.1 GHz Xeon vCPU.
REFERENCE_LOOP_S = 100e-6

#: Seconds between samples.
INTERVAL_S = 0.02

#: Seconds on either side of an operation whose samples also count.
SPAN_S = 0.1

#: Loops per sample; the fastest counts.  The first loop after a sleep
#: runs with caches the benchmark has since filled.
LOOPS_PER_SAMPLE = 3


def calibration_loop():
    """A function returning the thread CPU seconds of one calibration
    loop; each call looks up the next ``_LOOKUPS`` keys."""
    keys = list(range(_TABLE_SIZE))
    random.Random(0).shuffle(keys)
    table = {key: (key, key) for key in keys}
    cursor = 0

    def loop_seconds() -> float:
        nonlocal cursor
        batch = keys[cursor:cursor + _LOOKUPS]
        cursor = (cursor + _LOOKUPS) % (_TABLE_SIZE - _LOOKUPS)
        start = time.thread_time()
        total = 0
        for key in batch:
            total += table[key][0]
        return time.thread_time() - start

    return loop_seconds


def pin_to_one_cpu() -> int:
    """Pin every thread of this process, and so every process it starts
    from now on, to the lowest CPU it may run on; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    for thread in threading.enumerate():
        os.sched_setaffinity(thread.native_id, {cpu})
    return cpu


class SpeedSampler:
    """A child process sampling the speed of this process's core.

    Use after :func:`pin_to_one_cpu`, as a context manager; after it
    exits, :meth:`factor` gives the mean speed factor over an interval
    of ``time.monotonic()``.
    """

    def __init__(self):
        self._proc: subprocess.Popen | None = None
        self._times: list[float] = []
        self._factors: list[float] = []

    def __enter__(self) -> SpeedSampler:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(INTERVAL_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._proc.stdout.readline() != "ready\n":  # its table is built
            self.__exit__()
            raise RuntimeError("the speed sampler did not start")
        return self

    def __exit__(self, *_exc) -> None:
        proc = self._proc
        try:
            output, _ = proc.communicate(timeout=30)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        samples = json.loads(output)
        if not samples:
            raise RuntimeError("the speed sampler took no samples")
        self._times = [t for t, _ in samples]
        self._factors = [f for _, f in samples]

    def factor(self, start: float, end: float) -> float:
        """Mean speed factor sampled from ``SPAN_S`` before ``start`` to
        ``SPAN_S`` after ``end``: around a short operation, a mean over
        several samples rather than the one or none inside it."""
        lo = bisect_left(self._times, start - SPAN_S)
        hi = bisect_right(self._times, end + SPAN_S)
        if hi > lo:
            return sum(self._factors[lo:hi]) / (hi - lo)
        return self.median_factor()

    def median_factor(self) -> float:
        """The median of every factor sampled."""
        ordered = sorted(self._factors)
        return ordered[len(ordered) // 2]


def _sample(interval: float) -> int:
    loop_seconds = calibration_loop()
    print("ready", flush=True)
    samples = []
    while not select.select([sys.stdin], [], [], interval)[0]:
        # Now and then the thread CPU clock reads no time at all for a
        # loop (about once in 10^5 loops here); such a reading is dropped.
        timed = [seconds for seconds in (loop_seconds() for _ in range(LOOPS_PER_SAMPLE))
                 if seconds > 0]
        if timed:
            samples.append((time.monotonic(), REFERENCE_LOOP_S / min(timed)))
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(_sample(float(sys.argv[1])))
