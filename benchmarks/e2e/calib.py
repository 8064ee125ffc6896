"""The calibration kernel host timings are divided by.

Host speed on the shared 2-core box is not constant: it switches, for
tens of milliseconds to minutes at a time, between levels up to a third
apart (CPU time moves with wall time, so the process is not being
preempted; the machine is slower). A ~10 ms pure-Python kernel timed in
the same process slows down with it. run.py times it on an interval timer
every 100 ms *inside* the timed region, and scales every stretch between
two timings by the two that bound it:

    normalised seconds = raw seconds * CALIB_REF_S / kernel seconds

(README, noise study: one kernel timing before and one after a 2 s region
is worse than no normalisation; one every ~100 ms brings run-to-run
spread from ~10-20 % to ~3 %.)

The kernel uses the operations the simulator's hot paths are made of:
heap push/pop, dict stores, small ``bytes`` builds and ``isinstance``.
It imports nothing from ``repro`` and must never change: every normalised
number recorded so far is in units of it.
"""

from __future__ import annotations

import heapq
import time

#: Normalised seconds are "seconds on a machine that runs the kernel in
#: exactly this time" (about what the box the sizing table was made on
#: takes when quiet); the constant only fixes the unit.
CALIB_REF_S = 0.009

_N = 10_000


def _kernel() -> int:
    heap: list = []
    store: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    acc = 0
    for i in range(_N):
        push(heap, ((i * 7919) % 10007, i))
        store[i & 1023] = bytes((i & 255, (i >> 8) & 255, 7, 9))
        if isinstance(store.get((i * 31) & 1023), bytes):
            acc += 1
        if len(heap) > 512:  # bounded, so the kernel never sets peak RSS
            acc += pop(heap)[1] & 3
    return acc


def kernel_s() -> float:
    """Wall seconds one pass of the kernel takes right now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
