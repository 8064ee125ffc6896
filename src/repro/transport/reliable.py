"""Reliable delivery over any best-effort transport.

Adds per-destination sequence numbers, positive acknowledgements,
timeout-based retransmission with exponential backoff, and duplicate
suppression at the receiver. This is the layer the paper's "transactions"
ride on when the underlying network is lossy.

Frame format (kept binary-tight because the overhead experiments count
bytes)::

    DATA: b'D' + seq(u64 big-endian) + payload
    ACK:  b'A' + seq(u64 big-endian)

Broadcast destinations are sent once, unacknowledged — a broadcast has no
single acker.

Duplicate suppression is O(1) memory per peer: a cumulative watermark (all
seqs <= it were delivered) plus a bounded out-of-order window above it.
Frames beyond ``recv_window`` seqs ahead of the watermark are dropped
*without* acking, so the sender retransmits them once the window has
advanced — memory stays bounded without sacrificing exactly-once delivery.

Malformed frames (truncated headers, unknown flags — e.g. chaos-injected
corruption) are counted and dropped, never raised: a raise here would
propagate through the simulator event loop and kill the whole run.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.interop.frames import FRAME_TYPES, PrefixedFrame, split_frame
from repro.obs.tracing import TRACER, Span
from repro.transport.base import Address, Transport
from repro.transport.simnet import BROADCAST_NODE

_SEQ = struct.Struct(">Q")
DATA_FLAG = b"D"
ACK_FLAG = b"A"

#: Bytes of reliability header on each data frame.
RELIABLE_HEADER_BYTES = 1 + _SEQ.size


class ReliabilityParams:
    """Tuning knobs for the retransmission policy (bench E12 ablates these)."""

    __slots__ = ("ack_timeout_s", "max_retries", "backoff_factor",
                 "recv_window")

    def __init__(self, ack_timeout_s: float = 0.2, max_retries: int = 5,
                 backoff_factor: float = 2.0, recv_window: int = 1024) -> None:
        self.ack_timeout_s = ack_timeout_s
        self.max_retries = max_retries
        self.backoff_factor = backoff_factor
        self.recv_window = recv_window
        if self.ack_timeout_s <= 0:
            raise ConfigurationError(f"ack timeout must be positive, got {self.ack_timeout_s!r}")
        if self.max_retries < 0:
            raise ConfigurationError(f"max retries must be >= 0, got {self.max_retries!r}")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(f"backoff factor must be >= 1, got {self.backoff_factor!r}")
        if self.recv_window < 1:
            raise ConfigurationError(f"recv window must be >= 1, got {self.recv_window!r}")

    def timeout_for_attempt(self, attempt: int) -> float:
        """Timeout before the (attempt+1)-th retransmission."""
        return self.ack_timeout_s * (self.backoff_factor**attempt)


GiveUpCallback = Callable[[Address, bytes], None]


class _PeerReceiveState:
    """Per-peer dedup state: cumulative watermark + out-of-order window.

    Every seq <= ``watermark`` has been delivered; ``window`` holds the
    delivered seqs above it (bounded by ``ReliabilityParams.recv_window``,
    enforced by the caller refusing frames too far ahead).
    """

    __slots__ = ("watermark", "window")

    def __init__(self) -> None:
        self.watermark = 0
        self.window: Set[int] = set()

    def is_duplicate(self, seq: int) -> bool:
        return seq <= self.watermark or seq in self.window

    def mark_delivered(self, seq: int) -> None:
        self.window.add(seq)
        watermark = self.watermark
        window = self.window
        while watermark + 1 in window:
            watermark += 1
            window.discard(watermark)
        self.watermark = watermark


class ReliableTransport(Transport):
    """Wraps an unreliable transport with ack/retransmit/dedup.

    The wrapped transport's receiver slot is taken over; install the
    application receiver on *this* object. :attr:`on_give_up`, when a
    caller assigns one, is called when a message exhausts its retries — the
    sender's only failure signal, since the network itself says nothing.
    """

    def __init__(
        self,
        inner: Transport,
        params: ReliabilityParams = ReliabilityParams(),
    ):
        super().__init__(inner.local_address, inner.scheduler)
        self.inner = inner
        self.params = params
        self.on_give_up: Optional[GiveUpCallback] = None
        self._next_seq: Dict[Address, int] = {}
        # (destination, seq) -> (payload, attempt, timer handle, trace ctx)
        self._pending: Dict[
            Tuple[Address, int],
            Tuple[bytes, int, object, Optional[Span]],
        ] = {}
        self._recv: Dict[Address, _PeerReceiveState] = {}
        self.retransmissions = 0
        self.acks_sent = 0
        self.give_ups = 0
        self.malformed_frames = 0
        self.window_overflows = 0
        inner.set_receiver(self._on_frame)

    # --------------------------------------------------------------- sending

    @staticmethod
    def _data_frame(seq: int, payload: bytes):
        """DATA header + payload; keeps a lazy payload lazy."""
        header = DATA_FLAG + _SEQ.pack(seq)
        if isinstance(payload, FRAME_TYPES):
            return PrefixedFrame(header, payload)
        return header + payload

    def _send(self, destination: Address, payload: bytes) -> None:
        if destination.node == BROADCAST_NODE:
            # Fire-and-forget: broadcast cannot be positively acknowledged.
            self.inner.send(destination, self._data_frame(0, payload))
            return
        seq = self._next_seq.get(destination, 1)
        self._next_seq[destination] = seq + 1
        ctx = TRACER.current_context() if TRACER.enabled else None
        self._transmit(destination, seq, payload, attempt=0, ctx=ctx)

    def _transmit(self, destination: Address, seq: int, payload: bytes,
                  attempt: int, ctx: Optional[Span] = None) -> None:
        frame = self._data_frame(seq, payload)
        if attempt > 0 and TRACER.enabled:
            with TRACER.span("transport.retransmit", parent=ctx,
                             node=self._local.node, peer=destination.node,
                             seq=seq, attempt=attempt):
                self.inner.send(destination, frame)
        else:
            self.inner.send(destination, frame)
        timeout = self.params.timeout_for_attempt(attempt)
        handle = self.scheduler.schedule(timeout, self._on_timeout, destination, seq)
        self._pending[(destination, seq)] = (payload, attempt, handle, ctx)

    def _on_timeout(self, destination: Address, seq: int) -> None:
        entry = self._pending.pop((destination, seq), None)
        if entry is None:
            return  # acked in the meantime
        payload, attempt, _handle, ctx = entry
        if attempt >= self.params.max_retries:
            self.give_ups += 1
            if TRACER.enabled and ctx is not None:
                TRACER.instant("transport.give_up", parent=ctx,
                               node=self._local.node, peer=destination.node,
                               seq=seq, attempts=attempt + 1)
            if self.on_give_up is not None:
                self.on_give_up(destination, payload)
            return
        self.retransmissions += 1
        self._transmit(destination, seq, payload, attempt + 1, ctx=ctx)

    # ------------------------------------------------------------- receiving

    def _on_frame(self, source: Address, frame: bytes) -> None:
        header, payload = split_frame(frame, RELIABLE_HEADER_BYTES)
        if header is None:
            self._drop_malformed(source, f"truncated ({len(frame)} bytes)")
            return
        flag, seq = header[:1], _SEQ.unpack_from(header, 1)[0]
        if flag == ACK_FLAG:
            entry = self._pending.pop((source, seq), None)
            if entry is not None:
                entry[2].cancel()  # the retransmit timer
            return
        if flag != DATA_FLAG:
            self._drop_malformed(source, f"unknown flag {flag!r}")
            return
        if seq == 0:
            # Unacknowledged broadcast frame: deliver as-is.
            self._dispatch(source, payload)
            return
        state = self._recv.get(source)
        if state is None:
            state = self._recv[source] = _PeerReceiveState()
        if state.is_duplicate(seq):
            # Ack again — the original ack may have been lost.
            self.acks_sent += 1
            self.inner.send(source, ACK_FLAG + _SEQ.pack(seq))
            if TRACER.enabled:
                TRACER.instant("transport.duplicate",
                               node=self._local.node, peer=source.node, seq=seq)
            return
        if seq > state.watermark + self.params.recv_window:
            # Too far ahead of the watermark to track without unbounded
            # state. Dropped *unacked*, so the sender retransmits it after
            # the gap fills and the watermark catches up.
            self.window_overflows += 1
            if TRACER.enabled:
                TRACER.instant("transport.window_overflow",
                               node=self._local.node, peer=source.node, seq=seq)
            return
        self.acks_sent += 1
        self.inner.send(source, ACK_FLAG + _SEQ.pack(seq))
        state.mark_delivered(seq)
        self._dispatch(source, payload)

    def _drop_malformed(self, source: Address, why: str) -> None:
        self.malformed_frames += 1
        if TRACER.enabled:
            TRACER.instant("transport.malformed", node=self._local.node,
                           peer=source.node, why=why)

    # --------------------------------------------------------------- closing

    def close(self) -> None:
        super().close()
        for _payload, _attempt, handle, _ctx in self._pending.values():
            handle.cancel()
        self._pending.clear()
        self.inner.close()
