"""Event-loop profiling: wall-clock attribution per callback type.

The simulator is the only place real time is spent, so knowing *which
callbacks* burn it is the map every perf PR needs. A :class:`LoopProfiler`
plugged into :meth:`repro.netsim.simulator.Simulator.set_profiler` receives
``(fn, elapsed_seconds)`` for every processed event and aggregates by the
callback's qualified name::

    sim = Simulator()
    profiler = LoopProfiler.attach(sim)
    ... run the workload ...
    print(profiler.render())

The hook costs one ``is None`` check per event when detached; attach only
when measuring. :func:`count_repro_calls` is the exact companion: what a
piece of work costs in Python-level calls, the unit the call-budget guards
of ``tests/test_perf_hotpaths.py`` are written in.
"""

from __future__ import annotations

import collections
import os
import sys
from typing import Any, Callable, Dict, List


def count_repro_calls(run: Callable[[], Any]) -> "collections.Counter[str]":
    """``run()`` under ``sys.setprofile``: Python-level ``call`` events
    whose code lives in ``src/repro``, by function name. Exact, and the
    same on every machine."""
    root = os.path.dirname(os.path.dirname(__file__)) + os.sep
    calls: "collections.Counter[str]" = collections.Counter()

    def count(frame: Any, event: str, arg: Any) -> None:
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


class LoopProfiler:
    """Aggregates per-callback-type wall-clock time."""

    __slots__ = ("_records",)

    def __init__(self) -> None:
        # key -> [calls, total_seconds]
        self._records: Dict[str, List[float]] = {}

    @staticmethod
    def attach(sim: Any) -> "LoopProfiler":
        """Create a profiler and install it on a simulator."""
        profiler = LoopProfiler()
        sim.set_profiler(profiler)
        return profiler

    def add(self, fn: Callable[..., None], elapsed_s: float) -> None:
        key = getattr(fn, "__qualname__", None) or repr(fn)
        record = self._records.get(key)
        if record is None:
            self._records[key] = [1, elapsed_s]
        else:
            record[0] += 1
            record[1] += elapsed_s

    # --------------------------------------------------------------- reading

    @property
    def total_s(self) -> float:
        return sum(total for _calls, total in self._records.values())

    @property
    def calls(self) -> int:
        return int(sum(calls for calls, _total in self._records.values()))

    def rows(self) -> List[Dict[str, Any]]:
        """Per-callback stats, heaviest total first."""
        total = self.total_s or 1.0
        rows = [
            {
                "callback": key,
                "calls": int(calls),
                "total_ms": elapsed * 1e3,
                "mean_us": elapsed / calls * 1e6,
                "share": elapsed / total,
            }
            for key, (calls, elapsed) in self._records.items()
        ]
        rows.sort(key=lambda row: (-row["total_ms"], row["callback"]))
        return rows

    def render(self, title: str = "event-loop profile") -> str:
        rows = self.rows()
        lines = [title, "-" * len(title)]
        if not rows:
            lines.append("(no events profiled)")
            return "\n".join(lines)
        width = max(len(row["callback"]) for row in rows)
        lines.append(f"{'callback':<{width}}  {'calls':>8} {'total ms':>10} "
                     f"{'mean us':>9} {'share':>6}")
        for row in rows:
            lines.append(
                f"{row['callback']:<{width}}  {row['calls']:>8} "
                f"{row['total_ms']:>10.3f} {row['mean_us']:>9.2f} "
                f"{row['share']:>6.1%}"
            )
        return "\n".join(lines)
