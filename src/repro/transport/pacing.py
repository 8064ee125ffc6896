"""Paced sending: bounded queues + token-bucket flow control.

This is the transport half of the overload-protection story (ROADMAP item
4, paper Section 3.7): a :class:`PacedTransport` charges every send against
a flow reserved on a shared :class:`~repro.qos.bandwidth
.BandwidthAllocator`. Sends the reservation cannot carry *now* wait in a
**bounded** FIFO queue and drain as tokens refill; when the queue is full
the transport says "no" — the message is **shed** (counted and traced)
instead of growing memory without bound until the run ends.

Layering is the caller's choice:

* *above* :class:`~repro.transport.reliable.ReliableTransport` — admission
  semantics: a shed message was never handed to the reliability layer, so
  no retransmit state is created for it (the flash-crowd chaos mix and the
  overload bench use this);
* *below* it — link pacing: retransmissions are paced too, and a shed
  frame looks like loss, which the reliability layer recovers from.

Shedding is tail-drop (the arriving message is refused, queued messages
keep their place): FIFO order is preserved for whatever is eventually
sent, and the oldest — closest-to-transmitting — work is never wasted.
Closing sheds whatever is still queued, so every send is sent, queued
then sent, or shed.

Counters: the ``paced_sent``, ``queued``, ``shed`` and ``shed_oversize``
slots; :attr:`queue_depth` is the live depth and :attr:`max_queue_depth`
its high-water mark for bounded-memory invariants.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.tracing import TRACER
from repro.qos.bandwidth import BandwidthAllocator
from repro.transport.base import Address, Transport

#: Slack added to every drain-timer wait. ``time_until_available`` returns
#: the *exact* refill time; waking exactly then leaves the bucket an ulp
#: short of the needed tokens about half the time, and the retry wait
#: (~1e-16 s) can fall below float64 resolution at typical sim clocks — a
#: timer that no longer advances virtual time. A microsecond of slack
#: guarantees the refill covers the deficit.
_DRAIN_SLACK_S = 1e-6


class PacedTransport(Transport):
    """Wraps any transport with reservation-paced, bounded-queue sending.

    ``rate_bps`` (when given) reserves ``flow_id`` on the allocator at
    construction and releases it on close; pass ``rate_bps=None`` to pace
    against a flow the caller reserved (and owns) itself.

    The receive path is a pass-through: the wrapped transport's receiver
    slot is taken over, install the application receiver on *this* object.
    """

    def __init__(
        self,
        inner: Transport,
        allocator: BandwidthAllocator,
        flow_id: str,
        *,
        rate_bps: Optional[float] = None,
        max_queue: int = 64,
    ):
        if max_queue < 1:
            raise ConfigurationError(f"max queue must be >= 1, got {max_queue!r}")
        super().__init__(inner.local_address, inner.scheduler)
        self.inner = inner
        self.allocator = allocator
        self.flow_id = flow_id
        self.max_queue = max_queue
        self._owns_flow = rate_bps is not None
        if rate_bps is not None:
            allocator.reserve(flow_id, rate_bps, now=self.scheduler.now())
        elif flow_id not in allocator._flows:
            raise ConfigurationError(
                f"flow {flow_id!r} is not reserved; pass rate_bps to reserve it"
            )
        self._queue: Deque[Tuple[Address, bytes, float]] = deque()
        self._drain_timer: Optional[object] = None
        self.paced_sent = 0
        self.queued = 0
        self.shed = 0
        self.shed_oversize = 0
        self.max_queue_depth = 0
        inner.set_receiver(self._dispatch)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # --------------------------------------------------------------- sending

    def _send(self, destination: Address, payload: bytes) -> None:
        now = self.scheduler.now()
        bits = len(payload) * 8.0
        if not self._queue and self.allocator.try_send(self.flow_id, bits, now):
            self.paced_sent += 1
            self.inner.send(destination, payload)
            return
        if math.isinf(self.allocator.time_until_available(self.flow_id, bits, now)):
            # Larger than any burst this flow can ever assemble: queueing it
            # would wedge the head of the line forever.
            self.shed_oversize += 1
            self._shed(destination, payload, why="oversize")
            return
        if len(self._queue) >= self.max_queue:
            self._shed(destination, payload, why="queue_full")
            return
        self._queue.append((destination, payload, bits))
        self.queued += 1
        depth = len(self._queue)
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        self._schedule_drain(now)

    def _shed(self, destination: Address, payload: bytes, why: str) -> None:
        self.shed += 1
        if TRACER.enabled:
            TRACER.instant("transport.shed", node=self._local.node,
                           flow=self.flow_id, peer=destination.node, why=why)

    def _schedule_drain(self, now: float) -> None:
        if self._drain_timer is not None:
            return
        _dest, _payload, bits = self._queue[0]
        wait = self.allocator.time_until_available(self.flow_id, bits, now)
        self._drain_timer = self.scheduler.schedule(
            wait + _DRAIN_SLACK_S, self._drain
        )

    def _drain(self) -> None:
        self._drain_timer = None
        if self._closed:
            return
        now = self.scheduler.now()
        while self._queue:
            destination, payload, bits = self._queue[0]
            if not self.allocator.try_send(self.flow_id, bits, now):
                break
            self._queue.popleft()
            self.paced_sent += 1
            self.inner.send(destination, payload)
        if self._queue:
            self._schedule_drain(now)

    # --------------------------------------------------------------- closing

    def close(self) -> None:
        super().close()
        if self._drain_timer is not None:
            self._drain_timer.cancel()
            self._drain_timer = None
        queued, self._queue = self._queue, deque()
        for destination, payload, _bits in queued:
            self._shed(destination, payload, why="closed")
        if self._owns_flow:
            self.allocator.release(self.flow_id, now=self.scheduler.now())
        self.inner.close()
