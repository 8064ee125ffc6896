"""Tests for the reliable-delivery layer and stack composition."""

import pytest

from repro.errors import ConfigurationError
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric
from repro.transport.reliable import (
    RELIABLE_HEADER_BYTES,
    ReliabilityParams,
    ReliableTransport,
)
from repro.transport.stack import StackSpec, build_stack


def reliable_pair(loss=0.0, seed=0, params=None):
    fabric = InMemoryFabric(latency_s=0.01, loss_probability=loss, seed=seed)
    params = params or ReliabilityParams(ack_timeout_s=0.1, max_retries=8)
    a = ReliableTransport(fabric.endpoint("a"), params)
    b = ReliableTransport(fabric.endpoint("b"), params)
    return fabric, a, b


class TestReliabilityParams:
    def test_backoff_grows(self):
        params = ReliabilityParams(ack_timeout_s=0.1, backoff_factor=2.0)
        assert params.timeout_for_attempt(0) == pytest.approx(0.1)
        assert params.timeout_for_attempt(2) == pytest.approx(0.4)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            ReliabilityParams(ack_timeout_s=0)
        with pytest.raises(ConfigurationError):
            ReliabilityParams(max_retries=-1)
        with pytest.raises(ConfigurationError):
            ReliabilityParams(backoff_factor=0.5)


class TestReliableTransport:
    def test_lossless_delivery(self):
        fabric, a, b = reliable_pair()
        got = []
        b.set_receiver(lambda src, data: got.append(data))
        a.send(b.local_address, b"m1")
        fabric.run()
        assert got == [b"m1"]
        assert a.retransmissions == 0

    def test_all_messages_arrive_despite_loss(self):
        fabric, a, b = reliable_pair(loss=0.3, seed=42)
        got = []
        b.set_receiver(lambda src, data: got.append(data))
        for i in range(60):
            a.send(b.local_address, f"m{i}".encode())
        fabric.run()
        assert sorted(got) == sorted(f"m{i}".encode() for i in range(60))

    def test_duplicates_suppressed(self):
        fabric, a, b = reliable_pair(loss=0.4, seed=7)
        got = []
        b.set_receiver(lambda src, data: got.append(data))
        for i in range(40):
            a.send(b.local_address, f"m{i}".encode())
        fabric.run()
        assert len(got) == 40  # exactly once despite retransmissions
        assert a.retransmissions > 0

    def test_give_up_after_max_retries(self):
        fabric = InMemoryFabric(latency_s=0.01, loss_probability=0.999, seed=1)
        failures = []
        a = ReliableTransport(
            fabric.endpoint("a"),
            ReliabilityParams(ack_timeout_s=0.05, max_retries=2),
        )
        a.on_give_up = lambda dest, payload: failures.append(payload)
        ReliableTransport(fabric.endpoint("b"),
                          ReliabilityParams(ack_timeout_s=0.05, max_retries=2))
        a.send(Address("b"), b"doomed")
        fabric.run()
        assert failures == [b"doomed"]
        assert a.give_ups == 1

    def test_header_overhead_accounted(self):
        fabric, a, b = reliable_pair()
        b.set_receiver(lambda src, data: None)
        a.send(b.local_address, b"12345")
        fabric.run()
        assert a.inner.sent_bytes == 5 + RELIABLE_HEADER_BYTES

    def test_acks_sent_even_for_duplicates(self):
        fabric, a, b = reliable_pair(loss=0.5, seed=13)
        b.set_receiver(lambda src, data: None)
        for i in range(20):
            a.send(b.local_address, f"m{i}".encode())
        fabric.run()
        assert b.acks_sent >= 20


class TestStack:
    def test_plain_stack_passthrough(self):
        fabric = InMemoryFabric()
        base = fabric.endpoint("a")
        assert build_stack(base, StackSpec(reliable=False)) is base


class TestBoundedDedupState:
    """The ``_seen``-set regression: per-peer dedup state must stay O(1)
    (cumulative watermark + bounded out-of-order window), not grow with
    every message ever received."""

    def test_soak_10k_messages_o1_receiver_state(self):
        fabric, a, b = reliable_pair()
        got = []
        b.set_receiver(lambda src, data: got.append(data))
        for i in range(10_000):
            a.send(b.local_address, i.to_bytes(4, "big"))
        fabric.run()
        assert len(got) == 10_000
        state = b._recv[a.local_address]
        assert state.watermark == 10_000
        # In-order delivery: the out-of-order window never retains anything.
        assert len(state.window) == 0
        assert len(a._pending) == 0
        assert a.give_ups == 0

    def test_window_overflow_drops_unacked_then_retransmission_delivers(self):
        params = ReliabilityParams(ack_timeout_s=0.1, max_retries=12,
                                   recv_window=8)
        fabric, a, b = reliable_pair(loss=0.3, seed=3, params=params)
        got = []
        b.set_receiver(lambda src, data: got.append(data))
        for i in range(40):
            a.send(b.local_address, i.to_bytes(4, "big"))
        fabric.run()
        # Everything lands exactly once despite loss and window overflows.
        assert sorted(got) == [i.to_bytes(4, "big") for i in range(40)]
        assert b.window_overflows > 0
        assert a.give_ups == 0
        state = b._recv[a.local_address]
        assert state.watermark == 40
        assert len(state.window) == 0

    def test_malformed_frames_counted_and_dropped(self):
        fabric, a, b = reliable_pair()
        got = []
        b.set_receiver(lambda src, data: got.append(data))
        raw = fabric.endpoint("c")
        raw.send(b.local_address, b"D\x00")  # truncated header
        raw.send(b.local_address, b"Z" + bytes(RELIABLE_HEADER_BYTES))  # bad flag
        fabric.run()
        assert b.malformed_frames == 2
        assert got == []
        # The transport keeps working afterwards.
        a.send(b.local_address, b"still-alive")
        fabric.run()
        assert got == [b"still-alive"]
