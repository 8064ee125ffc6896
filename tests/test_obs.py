"""Observability subsystem: tracer, histograms, exporters, profiler."""

import json
import math

import pytest

from repro.monitoring import SystemEventBus
from repro.netsim.simulator import Simulator
from repro.obs import (
    LoopProfiler,
    NOOP_SPAN,
    TRACER,
    chrome_trace,
    dump_trace,
    render_summary,
    subsystems,
    validate_chrome_trace,
)
from repro.obs.metrics import Histogram, Summary, nearest_rank
from repro.obs.report import main as report_main


@pytest.fixture(autouse=True)
def _tracer_off():
    TRACER.disable()
    yield
    TRACER.disable()


# ------------------------------------------------------------------ tracing


def test_disabled_tracer_is_inert():
    assert not TRACER.enabled
    span = TRACER.span("transport.send", node="a")
    assert span is NOOP_SPAN
    with span:
        span.set_label(x=1)
    assert TRACER.current_context() is None
    TRACER.instant("route.drop", reason="ttl")
    assert TRACER.spans == []


def test_ambient_nesting_and_context():
    sim = Simulator()
    TRACER.enable(seed=1, clock=sim)
    with TRACER.span("txn.transaction", node="a") as root:
        sim.run_for(1.0)
        assert TRACER.current_context() is root
        with TRACER.span("rpc.call") as child:
            sim.run_for(1.0)
            assert child.trace_id == root.trace_id
            assert child.parent is root
    assert root.parent is None
    assert root.start == 0.0 and root.end == 2.0
    assert child.start == 1.0 and child.end == 2.0


def test_explicit_parent_span_crosses_boundaries():
    # The span a packet carries parents the deliver span on the far node,
    # whatever is ambient there.
    TRACER.enable(seed=1)
    root = TRACER.span("transport.send", node="a")
    root.finish()
    with TRACER.span("route.forward", node="b"):
        child = TRACER.span("transport.deliver", parent=root, node="b")
    child.finish()
    assert child.trace_id == root.trace_id
    assert child.parent is root


def test_finished_ancestors_extend_to_cover_late_children():
    sim = Simulator()
    TRACER.enable(seed=1, clock=sim)
    root = TRACER.span("rpc.call", node="a")
    child = TRACER.span("transport.deliver", parent=root, node="b")
    root.finish()  # async root closed at t=0
    sim.run_for(5.0)
    child.finish()  # late child would otherwise escape the parent interval
    assert child.end == 5.0
    assert root.end == 5.0


def test_deterministic_span_ids():
    TRACER.enable(seed=7)
    TRACER.span("a").finish()
    TRACER.span("b").finish()
    first = [(s.trace_id, s.span_id) for s in TRACER.spans]
    TRACER.enable(seed=7)
    TRACER.span("a").finish()
    TRACER.span("b").finish()
    assert [(s.trace_id, s.span_id) for s in TRACER.spans] == first
    TRACER.enable(seed=8)
    TRACER.span("a").finish()
    assert (TRACER.spans[0].trace_id, TRACER.spans[0].span_id) != first[0]


def test_exception_labels_error_and_pops_stack():
    TRACER.enable(seed=1)
    with pytest.raises(ValueError):
        with TRACER.span("milan.reconfigure"):
            raise ValueError("boom")
    (span,) = TRACER.spans
    assert span.labels["error"] == "ValueError"
    assert TRACER.current_context() is None


def test_finish_all_closes_open_spans():
    sim = Simulator()
    TRACER.enable(seed=1, clock=sim)
    outer = TRACER.span("txn.transaction")
    inner = TRACER.span("rpc.call", parent=outer)
    sim.run_for(3.0)
    TRACER.finish_all()
    assert outer.end == 3.0 and inner.end == 3.0


# ------------------------------------------------------------------ metrics


def test_histogram_quantiles_are_ordered_within_the_observed_range():
    hist = Histogram()
    for ms in (1, 2, 3, 4, 100):
        hist.observe(ms * 1e-3)
    assert hist.count == 5
    quantiles = [hist.quantile(q) for q in (0.0, 0.5, 0.95, 0.99, 1.0)]
    assert quantiles == sorted(quantiles)
    assert hist.minimum <= quantiles[0] and quantiles[-1] == hist.maximum


def test_event_bus_counts_through_history():
    bus = SystemEventBus()
    bus.publish("node.crashed", {"node": "n1"})
    bus.publish("node.crashed", {"node": "n2"})
    assert len(bus.events_matching("node.crashed")) == 2
    assert bus.events_matching("node.recovered") == []


# ------------------------------------------------------------------ export


def _sample_trace():
    sim = Simulator()
    TRACER.enable(seed=3, clock=sim)
    with TRACER.span("transport.send", node="a", peer="b"):
        sim.run_for(0.001)
        with TRACER.span("route.forward", node="a", next_hop="b"):
            sim.run_for(0.002)
    TRACER.span("milan.reconfigure", state="rest").finish()
    return chrome_trace(TRACER)


def test_chrome_trace_shape_and_validation(tmp_path):
    trace = _sample_trace()
    assert validate_chrome_trace(trace) == []
    assert subsystems(trace) == {"transport", "route", "milan"}
    events = trace["traceEvents"]
    metadata = [e for e in events if e["ph"] == "M"]
    assert {e["args"]["name"] for e in metadata if e["name"] == "process_name"} == {
        "a", "system",
    }
    xs = [e for e in events if e["ph"] == "X"]
    send = next(e for e in xs if e["name"] == "transport.send")
    forward = next(e for e in xs if e["name"] == "route.forward")
    assert send["ts"] == 0.0 and send["dur"] == pytest.approx(3000.0)
    assert forward["args"]["parent_id"] == send["args"]["span_id"]
    assert "trace summary" not in render_summary(trace, title="t")  # custom title

    path = tmp_path / "trace.json"
    dump_trace(trace, path)
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(trace, sort_keys=True)
    )


def test_validator_rejects_malformed_traces():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"traceEvents": [{"ph": "Z", "name": "x"}]}) != []
    assert validate_chrome_trace(
        {"traceEvents": [{"ph": "X", "name": "x", "ts": -1, "dur": 0,
                          "pid": 1, "tid": 1}]}
    ) != []


def test_report_cli(tmp_path, capsys):
    trace = _sample_trace()
    path = tmp_path / "trace.json"
    dump_trace(trace, path)
    assert report_main([str(path), "--validate"]) == 0
    assert "OK" in capsys.readouterr().out
    assert report_main([str(path)]) == 0
    assert "transport.send" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text("{\"traceEvents\": 5}")
    assert report_main([str(bad)]) == 1


# ----------------------------------------------------------------- profiler


def test_loop_profiler_attributes_callbacks():
    sim = Simulator()
    profiler = LoopProfiler.attach(sim)

    def tick():
        pass

    for i in range(5):
        sim.schedule(0.1 * (i + 1), tick)
    sim.run()
    assert profiler.calls == 5
    (row,) = profiler.rows()
    assert "tick" in row["callback"]
    assert row["share"] == pytest.approx(1.0)
    assert "tick" in profiler.render()

    sim.set_profiler(None)
    sim.schedule(0.1, tick)
    sim.run()
    assert profiler.calls == 5  # detached: no further attribution


# ----------------------------------------------- degenerate distributions


def test_empty_histogram_quantiles_are_zero():
    """A histogram with no samples answers 0.0, never raises — scorecards
    from zero-traffic windows read percentiles unconditionally."""
    hist = Histogram()
    for q in (0.0, 0.5, 0.95, 0.99, 1.0):
        assert hist.quantile(q) == 0.0


def test_single_sample_histogram_quantiles_are_that_sample():
    hist = Histogram()
    hist.observe(0.0137)
    for q in (0.0, 0.5, 0.95, 0.99, 1.0):
        assert hist.quantile(q) == pytest.approx(0.0137)


def test_module_percentile_of_empty_sample_is_zero():
    assert nearest_rank([], 0.5) == 0.0
    assert nearest_rank([], 0.99) == 0.0
    summary = Summary.of([])
    assert summary.count == 0
    assert summary.p99 == 0.0


def test_nearest_rank_takes_a_fraction_and_rejects_anything_else():
    values = list(range(1, 101))
    assert nearest_rank(values, 0.0) == 1
    assert nearest_rank(values, 0.99) == 99  # a fraction, not "0.99 percent"
    assert nearest_rank(values, 1.0) == 100
    for q in (-0.01, 1.01, 50, 99):  # percent-style arguments are refused
        with pytest.raises(ValueError):
            nearest_rank(values, q)
        with pytest.raises(ValueError):
            nearest_rank([], q)


def test_nearest_rank_equals_the_formula_the_chaos_scorecards_were_cut_with():
    """``ChaosCampaign._check_flashcrowd`` used to carry its own copy."""
    def closure(latencies, q):
        index = min(len(latencies) - 1,
                    max(0, math.ceil(q * len(latencies)) - 1))
        return latencies[index]

    for n in range(1, 201):
        values = [0.25 * i for i in range(n)]
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert nearest_rank(values, q) == closure(values, q), (n, q)


def test_summary_of_static():
    summary = Summary.of([3.0, 1.0, 2.0, 100.0, 4.0])
    assert (summary.minimum, summary.p50, summary.maximum) == (1.0, 3.0, 100.0)
    assert summary.count == 5


def test_summary_p95_p99():
    summary = Summary.of(list(range(1, 101)))  # 1..100
    assert (summary.p50, summary.p95, summary.p99) == (50, 95, 99)


def test_histogram_quantile_still_rejects_out_of_range_q():
    hist = Histogram()
    with pytest.raises(ValueError):
        hist.quantile(1.5)
