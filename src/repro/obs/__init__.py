"""Observability: causal tracing, metrics, exporters, and profiling.

The middleware cannot be operated — or optimized — blind. This package is
the stack-wide instrumentation layer:

* :mod:`repro.obs.tracing` — causal spans over *sim time*. A span is its
  own trace context, carried by packets across hops, so one application
  operation (an RPC, a transaction delivery, a route discovery) forms a
  single well-nested span tree no matter how many nodes it touches.
  Tracing is **off by default**: every instrumentation site is guarded by
  ``TRACER.enabled`` and costs one attribute check when disabled.
* :mod:`repro.obs.metrics` — the catalogue of slot counters, streaming
  histograms (p50/p95/p99), and the exact :class:`Summary` over raw
  samples.
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

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "chrome_trace": "repro.obs.export",
    "dump_trace": "repro.obs.export",
    "render_summary": "repro.obs.export",
    "subsystems": "repro.obs.export",
    "validate_chrome_trace": "repro.obs.export",
    "Summary": "repro.obs.metrics",
    "LoopProfiler": "repro.obs.profiler",
    "NOOP_SPAN": "repro.obs.tracing",
    "Span": "repro.obs.tracing",
    "Tracer": "repro.obs.tracing",
    "TRACER": "repro.obs.tracing",
})
