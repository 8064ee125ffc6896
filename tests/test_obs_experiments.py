"""End-to-end tracing through the experiments (the acceptance scenarios)."""

import hashlib
import json

import pytest

from repro.experiments import exp_handoff, exp_milan
from repro.obs.export import canonical_json, chrome_trace
from repro.obs.tracing import TRACER


@pytest.fixture(autouse=True)
def _tracer_off():
    TRACER.disable()
    yield
    TRACER.disable()


def test_traced_milan_run_covers_the_stack(tmp_path):
    path = tmp_path / "milan_trace.json"
    result = exp_milan.run_traced(seed=0, export_path=str(path))
    assert result["valid"]
    assert result["deliveries"] > 0
    # The issue's floor is four subsystems; the scenario produces six.
    assert {"transport", "route", "txn", "milan"} <= set(result["subsystems"])
    assert {"rpc", "discovery"} <= set(result["subsystems"])
    assert not TRACER.enabled  # the experiment cleans up after itself
    assert json.loads(path.read_text())["traceEvents"]


def test_traced_exports_are_byte_identical_across_runs(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    exp_milan.run_traced(seed=3, export_path=str(first))
    exp_milan.run_traced(seed=3, export_path=str(second))
    assert first.read_bytes() == second.read_bytes()
    # A different seed must produce different span ids.
    third = tmp_path / "c.json"
    exp_milan.run_traced(seed=4, export_path=str(third))
    assert first.read_bytes() != third.read_bytes()


def test_traced_milan_export_is_pinned_to_its_bytes():
    """The seed-0 ``exp_milan`` trace (439 spans, 458 events; the file CI
    uploads) hashed over its canonical bytes. Span ids, parents, intervals
    and labels all feed it, so a change to how the tracer draws ids, links
    a span to its parent or closes it shows here as a new digest."""
    exp_milan.run_traced(seed=0)
    digest = hashlib.sha256(canonical_json(chrome_trace(TRACER))).hexdigest()
    assert digest == (
        "0a5631d96d83850bc041f405602251010283abeea8bccb0b0f93158a4696262d")


def test_traced_handoff_run_exports_valid_trace(tmp_path):
    path = tmp_path / "handoff_trace.json"
    result = exp_handoff.run_one(True, seed=0, trace_path=str(path))
    assert result["deliveries"] > 0
    trace = json.loads(path.read_text())
    from repro.obs.export import subsystems, validate_chrome_trace

    assert validate_chrome_trace(trace) == []
    assert {"transport", "rpc", "txn", "discovery"} <= subsystems(trace)


def test_untraced_runs_record_no_spans():
    exp_handoff.run_one(False, seed=0)
    assert TRACER.spans == [] or not TRACER.enabled
    assert not TRACER.enabled
