"""Observability: causal tracing, metrics, exporters, and profiling.

The middleware cannot be operated — or optimized — blind. This package is
the stack-wide instrumentation layer:

* :mod:`repro.obs.tracing` — causal spans over *sim time*. Trace context is
  carried in packet headers across hops, so one application operation (an
  RPC, a transaction delivery, a route discovery) forms a single well-nested
  span tree no matter how many nodes it touches. Tracing is **off by
  default**: every instrumentation site is guarded by ``TRACER.enabled``
  and costs one attribute check when disabled.
* :mod:`repro.obs.metrics` — a registry of counters, gauges, and streaming
  histograms (p50/p95/p99) keyed by name+labels, plus the exact
  :class:`Summary` over raw samples.
* :mod:`repro.obs.export` — Chrome trace-event JSON (loadable in Perfetto)
  mapping spans onto per-node timelines, plain-text summaries, and the
  canonical JSON encoding traces and scorecards are compared in.
* :mod:`repro.obs.history` — operation intervals recorded off promises,
  the input of the linearizability replay.
* :mod:`repro.obs.report` — ``python -m repro.obs.report trace.json``.
* :mod:`repro.obs.profiler` — wall-clock attribution per event-loop
  callback type, pluggable into :class:`repro.netsim.simulator.Simulator`.

Span ids derive from :func:`repro.util.rng.split_rng`, so two runs with the
same seed export byte-identical traces.
"""

from repro.obs.export import (
    chrome_trace,
    dump_trace,
    render_summary,
    subsystems,
    validate_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry, Summary, get_registry
from repro.obs.profiler import LoopProfiler
from repro.obs.tracing import NOOP_SPAN, Span, Tracer, TRACER

__all__ = [
    "TRACER",
    "Tracer",
    "Span",
    "NOOP_SPAN",
    "MetricsRegistry",
    "Summary",
    "get_registry",
    "LoopProfiler",
    "chrome_trace",
    "dump_trace",
    "validate_chrome_trace",
    "render_summary",
    "subsystems",
]
