"""Queue-only A/B: what an event costs the simulator's queue as the number
of pre-scheduled entries grows.

    PYTHONPATH=src python benchmarks/queue_depth.py [--repeats 5]

A beacon fires and schedules one delivery (``call_later``, 1 ms later);
``N`` beacons are laid out in order by ``schedule_at`` before the run, as
``benchmarks/scale.py`` and the ``swarm_beacon`` workload lay theirs out.
Both callbacks do nothing else, so the time is the queue's and the loop's.
Two queues run in one process, sides alternating, each repeat on a fresh
simulator with the garbage collector off:

* ``heap``: every entry in the binary heap, as the simulator queued them
  before pre-scheduled entries had a run of their own (a subclass whose
  ``schedule_at`` pushes into the heap; it still pays the loop's one
  ``if run`` test per event, so it reads a little slower than that queue);
* ``run``: :class:`Simulator` as it is, the beacons in its sorted run and
  only the pending delivery in the heap.

It prints ns per event (two events per beacon), the median over the
repeats, at 2 048, 20 480 and 99 856 pending beacons: a 32 x 32 swarm at
two beacons a node, and the ``scale_10k`` and ``scale_100k`` points.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # direct invocation convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.netsim.simulator import Simulator

PENDING = (2_048, 20_480, 99_856)


class HeapOnly(Simulator):
    """Every entry in the heap: ``schedule_at`` without the run."""

    def schedule_at(self, when, fn, *args):
        return self._handle(when + 0.0, fn, args)


def ns_per_event(queue: type, pending: int) -> float:
    """One run of ``pending`` beacons on a fresh ``queue``."""
    sim = queue()
    call_later = sim.call_later

    def deliver():
        pass

    def beacon():
        call_later(0.001, deliver)

    step = 1.6 / pending
    for index in range(pending):
        sim.schedule_at(0.05 + index * step, beacon)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert sim.events_processed == 2 * pending
    return elapsed / sim.events_processed * 1e9


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sides = {"heap": HeapOnly, "run": Simulator}
    print(f"{'pending':>8} {'heap ns/ev':>11} {'run ns/ev':>10} {'run/heap':>9}")
    for pending in PENDING:
        timings = {side: [] for side in sides}
        for repeat in range(args.repeats):
            order = list(sides) if repeat % 2 == 0 else list(sides)[::-1]
            for side in order:
                timings[side].append(ns_per_event(sides[side], pending))
        heap, run = (statistics.median(timings[side]) for side in sides)
        print(f"{pending:>8} {heap:>11.0f} {run:>10.0f} {run / heap:>9.2f}")


if __name__ == "__main__":
    main()
