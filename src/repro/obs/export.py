"""Trace exporters: Chrome trace-event JSON and plain-text summaries.

The Chrome trace-event format (the JSON Perfetto and ``chrome://tracing``
load) models a trace as a flat list of events with process/thread ids. We
map the simulation onto it as:

* **process** (``pid``) — one per node (spans labelled ``node=...``);
  spans without a node label (MiLAN, transactions driven from outside the
  network) land on the ``"system"`` process;
* **thread** (``tid``) — one per subsystem within a process (``transport``,
  ``route``, ``rpc``, ``txn``, ``discovery``, ``milan``, ...), taken from
  the span name's first dot-separated component;
* **event** — one complete (``"ph": "X"``) event per span, ``ts``/``dur``
  in microseconds of sim time, span/trace/parent ids (16 hex digits,
  formatted here and nowhere else) and labels in ``args``.

Exports are deterministic: processes and threads are numbered in sorted
order, events follow span creation order, and the JSON is dumped with
sorted keys — two seeded runs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Set, Union

from repro.obs.metrics import Summary
from repro.obs.tracing import Tracer

DEFAULT_PROCESS = "system"

#: Event phases the validator accepts (the subset Perfetto cares about).
_KNOWN_PHASES = {"X", "M", "B", "E", "i", "I", "s", "f", "t", "C"}


def _subsystem(name: str) -> str:
    return name.split(".", 1)[0]


def chrome_trace(tracer: Tracer, default_process: str = DEFAULT_PROCESS) -> Dict[str, Any]:
    """Render the tracer's spans as a Chrome trace-event JSON object."""
    spans = list(tracer.spans)
    processes = sorted({str(s.labels.get("node", default_process)) for s in spans})
    pid_of = {name: i + 1 for i, name in enumerate(processes)}
    tracks = sorted({(str(s.labels.get("node", default_process)),
                      _subsystem(s.name)) for s in spans})
    tid_of: Dict[Any, int] = {}
    next_tid: Dict[str, int] = {}
    for process, subsystem in tracks:
        tid = next_tid.get(process, 1)
        next_tid[process] = tid + 1
        tid_of[(process, subsystem)] = tid

    events: List[Dict[str, Any]] = []
    for process in processes:
        events.append({"ph": "M", "name": "process_name", "pid": pid_of[process],
                       "tid": 0, "args": {"name": process}})
    for (process, subsystem), tid in sorted(tid_of.items()):
        events.append({"ph": "M", "name": "thread_name", "pid": pid_of[process],
                       "tid": tid, "args": {"name": subsystem}})
    for span in spans:
        process = str(span.labels.get("node", default_process))
        end = span.end if span.end is not None else span.start
        args: Dict[str, Any] = {"trace_id": f"{span.trace_id:016x}",
                                "span_id": f"{span.span_id:016x}"}
        if span.parent is not None:
            args["parent_id"] = f"{span.parent.span_id:016x}"
        for key, value in span.labels.items():
            args[key] = value if isinstance(value, (int, float, bool)) else str(value)
        events.append({
            "name": span.name,
            "cat": _subsystem(span.name),
            "ph": "X",
            "ts": round(span.start * 1e6, 3),
            "dur": round((end - span.start) * 1e6, 3),
            "pid": pid_of[process],
            "tid": tid_of[(process, _subsystem(span.name))],
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def canonical_json(obj: Any) -> bytes:
    """The one canonical encoding: sorted keys, no whitespace, UTF-8.

    Two artifacts (traces, chaos / failover / workload scorecards) agree
    iff their canonical bytes agree, so "byte-identical" has one
    definition everywhere. Floats come from the virtual-time simulator and
    seeded streams; their ``repr`` round-trips exactly.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def dump_trace(trace: Dict[str, Any], path: Union[str, Path]) -> None:
    """Write a trace object as deterministic (sorted-key, compact) JSON."""
    Path(path).write_bytes(canonical_json(trace) + b"\n")


def validate_chrome_trace(trace: Any) -> List[str]:
    """Check an object against the Chrome trace-event schema.

    Returns a list of error strings — empty when the trace is loadable.
    """
    errors: List[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be a JSON object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["trace must contain a 'traceEvents' list"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"{where}: missing event name")
        if phase == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(f"{where}: {field!r} must be a number >= 0")
            for field in ("pid", "tid"):
                if not isinstance(event.get(field), int):
                    errors.append(f"{where}: {field!r} must be an integer")
        if "args" in event and not isinstance(event["args"], dict):
            errors.append(f"{where}: 'args' must be an object")
    return errors


def subsystems(trace: Dict[str, Any]) -> Set[str]:
    """The set of subsystems (span-name prefixes) present in a trace."""
    return {
        event.get("cat", _subsystem(event["name"]))
        for event in trace.get("traceEvents", [])
        if event.get("ph") == "X"
    }


def span_rows(trace: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-span-name duration statistics, slowest total first."""
    durations: Dict[str, List[float]] = {}
    for event in trace.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        durations.setdefault(event["name"], []).append(float(event.get("dur", 0.0)))
    rows = []
    for name in sorted(durations):
        summary = Summary.of(durations[name])
        rows.append({
            "span": name,
            "count": summary.count,
            "total_ms": sum(durations[name]) / 1e3,
            "p50_us": summary.p50,
            "p95_us": summary.p95,
            "p99_us": summary.p99,
            "max_us": summary.maximum,
        })
    rows.sort(key=lambda row: -row["total_ms"])
    return rows


def render_summary(trace: Dict[str, Any], title: str = "trace summary") -> str:
    rows = span_rows(trace)
    lines = [title, "-" * len(title)]
    lines.append(f"subsystems: {', '.join(sorted(subsystems(trace))) or '(none)'}")
    if not rows:
        lines.append("(no spans)")
        return "\n".join(lines)
    width = max(len(row["span"]) for row in rows)
    lines.append(f"{'span':<{width}}  {'count':>6} {'total ms':>10} "
                 f"{'p50 us':>9} {'p95 us':>9} {'p99 us':>9}")
    for row in rows:
        lines.append(
            f"{row['span']:<{width}}  {row['count']:>6} {row['total_ms']:>10.3f} "
            f"{row['p50_us']:>9.1f} {row['p95_us']:>9.1f} {row['p99_us']:>9.1f}"
        )
    return "\n".join(lines)
