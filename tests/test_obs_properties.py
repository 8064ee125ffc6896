"""Property tests: trace-tree invariants under loss, retransmit, and dedup.

Every reliable send is one root span; everything the network does on its
behalf — transmission, loss, retransmission, delivery, acking, duplicate
suppression, give-up — must land in that send's trace, nested inside its
parent's sim-time interval. Hypothesis drives the loss rate and message
count; the seeded fabric makes each case reproducible.
"""

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.obs.tracing import TRACER
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric
from repro.transport.reliable import ReliabilityParams, ReliableTransport


def _run_reliable_exchange(n_messages: int, loss: float, seed: int):
    """Send ``n_messages`` a->b over a lossy fabric; returns (spans, received)."""
    fabric = InMemoryFabric(latency_s=0.01, loss_probability=loss, seed=seed)
    TRACER._clock = fabric.sim  # spans carry real sim-time intervals
    params = ReliabilityParams(ack_timeout_s=0.05, max_retries=4)
    a = ReliableTransport(fabric.endpoint("a"), params)
    b = ReliableTransport(fabric.endpoint("b"), params)
    received = []
    b.set_receiver(lambda source, payload: received.append(payload))
    destination = Address("b")
    for i in range(n_messages):
        a.send(destination, b"msg-%d" % i)
    fabric.run()
    TRACER.finish_all()
    return list(TRACER.spans), received


@settings(max_examples=30, deadline=None)
@given(
    n_messages=st.integers(min_value=1, max_value=8),
    loss=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_one_root_per_send_and_well_nested(n_messages, loss, seed):
    TRACER.enable(seed=seed)
    try:
        spans, received = _run_reliable_exchange(n_messages, loss, seed)
    finally:
        TRACER.disable()

    assert all(span.end is not None for span in spans)

    by_trace = defaultdict(list)
    for span in spans:
        by_trace[span.trace_id].append(span)

    # Exactly one trace per application send, each with exactly one root —
    # the originating reliable transport.send.
    assert len(by_trace) == n_messages
    for trace_spans in by_trace.values():
        roots = [s for s in trace_spans if s.parent is None]
        assert len(roots) == 1
        assert roots[0].name == "transport.send"

    # Well-nestedness: every child's interval lies within its parent's.
    recorded = set(spans)
    for span in spans:
        parent = span.parent
        if parent is None:
            continue
        assert parent in recorded
        assert parent.trace_id == span.trace_id
        assert parent.start <= span.start
        assert span.end <= parent.end

    # A message was received iff its trace contains a delivery at b.
    delivered_traces = {
        span.trace_id
        for span in spans
        if span.name == "transport.deliver" and span.labels.get("node") == "b"
    }
    assert len(delivered_traces) == len(received)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_lossy_run_records_loss_or_retransmit_in_the_same_trace(seed):
    """At 50% loss something must go wrong — and stay causally attached."""
    TRACER.enable(seed=seed)
    try:
        spans, _received = _run_reliable_exchange(6, 0.5, seed)
    finally:
        TRACER.disable()
    names_by_trace = defaultdict(set)
    for span in spans:
        names_by_trace[span.trace_id].add(span.name)
    recovery = {"transport.loss", "transport.retransmit", "transport.give_up",
                "transport.duplicate"}
    assert any(names & recovery for names in names_by_trace.values())
    # Recovery activity never starts its own trace.
    for names in names_by_trace.values():
        if names & recovery:
            assert "transport.send" in names
