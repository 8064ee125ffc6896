"""Message-oriented middleware: named queues with store-and-forward.

The "message-based techniques" of the literature review ([64, 65]): a
:class:`MessageBroker` holds named queues; producers ``put`` without knowing
who (or whether anyone) consumes; consumers ``subscribe`` and acknowledge.
Unacknowledged deliveries are redelivered after a timeout, giving
at-least-once semantics; consumers on one queue share work round-robin.

Protocol (codec dicts)::

    put:       {"op": "put", "queue": q, "body": v [, "rid": id]}
    subscribe: {"op": "subscribe", "queue": q, "rid": id}
    deliver:   {"op": "deliver", "queue": q, "mid": id, "body": v}
    ack:       {"op": "ack", "mid": id}
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import DeliveryError
from repro.interop.codec import wire_plain
from repro.transport.base import Address, Transport
from repro.transport.endpoint import MessageEndpoint, optional, present
from repro.util.ids import IdGenerator
from repro.util.promise import Promise

#: How long a delivery waits for its ack before the broker redelivers it.
REDELIVERY_TIMEOUT_S = 5.0
#: Deliveries a message gets before it is dead-lettered.
MAX_REDELIVERIES = 20
#: How long a client waits for the broker to confirm a put or subscribe.
REQUEST_TIMEOUT_S = 2.0


class _QueueState:
    __slots__ = ("messages", "subscribers", "next_subscriber")

    def __init__(self) -> None:
        self.messages: Deque[Tuple[str, Any]] = deque()  # (mid, body)
        self.subscribers: List[Address] = []
        self.next_subscriber = 0


class MessageBroker(MessageEndpoint):
    """The queue manager process."""

    OPS = {
        "put": ({"queue": str, "body": present, "rid": optional(str)},
                "_handle_put"),
        "subscribe": ({"queue": str, "rid": optional(str)},
                      "_handle_subscribe"),
        "ack": ({"mid": str}, "_handle_ack"),
    }

    def __init__(
        self,
        transport: Transport,
    ):
        super().__init__(transport)
        self._queues: Dict[str, _QueueState] = {}
        self._mids = IdGenerator("m")
        # mid -> (queue, body, subscriber) awaiting ack
        self._inflight: Dict[str, Tuple[str, Any, Address]] = {}
        self._attempts: Dict[str, int] = {}
        #: Messages abandoned after MAX_REDELIVERIES (queue, body) pairs.
        self.dead_letters: List[Tuple[str, Any]] = []
        self.deliveries = 0
        self.redeliveries = 0

    def depth(self, queue: str) -> int:
        state = self._queues.get(queue)
        return len(state.messages) if state else 0

    def _queue(self, name: str) -> _QueueState:
        return self._queues.setdefault(name, _QueueState())

    # -------------------------------------------------------------- protocol

    def _handle_ack(self, source: Address, message: Dict[str, Any]) -> None:
        self._inflight.pop(message["mid"], None)
        self._attempts.pop(message["mid"], None)

    def _handle_put(self, source: Address, message: Dict[str, Any]) -> None:
        queue = self._queue(message["queue"])
        mid = self._mids.next()
        # A copy: the frame's body is the producer's own object, and the
        # queue (or a dead letter) holds what was put, not what it became.
        queue.messages.append((mid, wire_plain(message["body"])))
        if "rid" in message:
            self._ack(source, message, mid=mid)
        self._drain(message["queue"])

    def _handle_subscribe(self, source: Address, message: Dict[str, Any]) -> None:
        queue = self._queue(message["queue"])
        if source not in queue.subscribers:
            queue.subscribers.append(source)
        self._ack(source, message)
        self._drain(message["queue"])

    # -------------------------------------------------------------- delivery

    def _drain(self, queue_name: str) -> None:
        queue = self._queue(queue_name)
        while queue.messages and queue.subscribers:
            mid, body = queue.messages.popleft()
            subscriber = queue.subscribers[queue.next_subscriber % len(queue.subscribers)]
            queue.next_subscriber += 1
            self._deliver(queue_name, mid, body, subscriber)

    def _deliver(self, queue_name: str, mid: str, body: Any, subscriber: Address) -> None:
        self.deliveries += 1
        self._inflight[mid] = (queue_name, body, subscriber)
        self._send(
            subscriber,
            {"op": "deliver", "queue": queue_name, "mid": mid, "body": body},
        )
        self.transport.scheduler.schedule(
            REDELIVERY_TIMEOUT_S, self._check_ack, mid
        )

    def _check_ack(self, mid: str) -> None:
        entry = self._inflight.pop(mid, None)
        if entry is None:
            return  # acked
        queue_name, body, failed_subscriber = entry
        attempts = self._attempts.get(mid, 0) + 1
        self._attempts[mid] = attempts
        if attempts > MAX_REDELIVERIES:
            # Dead-letter: an unackable message must not spin forever.
            self._attempts.pop(mid, None)
            self.dead_letters.append((queue_name, body))
            return
        queue = self._queue(queue_name)
        # Requeue at the front and try the next subscriber (the failed one
        # may be gone; round-robin will rotate past it).
        self.redeliveries += 1
        queue.messages.appendleft((mid, body))
        self._drain(queue_name)


class MessagingClient(MessageEndpoint):
    """A producer/consumer handle onto the broker."""

    OPS = {
        "deliver": ({"queue": str, "mid": str, "body": present}, "_on_deliver"),
        "put_ack": ({"rid": str}, "_on_reply"),
        "subscribe_ack": ({"rid": str}, "_on_reply"),
    }

    def __init__(
        self,
        transport: Transport,
        broker_address: Address,
    ):
        super().__init__(transport, rids="msg")
        self.broker_address = broker_address
        self._handlers: Dict[str, Callable[[Any], None]] = {}

    # --------------------------------------------------------------- producer

    def put(self, queue: str, body: Any, confirm: bool = False) -> Optional[Promise]:
        """Enqueue a message. With ``confirm`` returns a Promise of the
        broker's ack (message id); without, it is fire-and-forget."""
        message: Dict[str, Any] = {"op": "put", "queue": queue, "body": body}
        if not confirm:
            self._send(self.broker_address, message)
            return None
        return self._request(self.broker_address, message,
                             REQUEST_TIMEOUT_S, DeliveryError)

    # --------------------------------------------------------------- consumer

    def subscribe(self, queue: str, handler: Callable[[Any], None]) -> Promise:
        """Consume from a queue; the handler receives message bodies and
        deliveries are auto-acknowledged after it returns."""
        self._handlers[queue] = handler
        return self._request(
            self.broker_address, {"op": "subscribe", "queue": queue},
            REQUEST_TIMEOUT_S, DeliveryError)

    # -------------------------------------------------------------- plumbing

    def _on_deliver(self, source: Address, message: Dict[str, Any]) -> None:
        handler = self._handlers.get(message["queue"])
        if handler is not None:
            # A copy: the broker keeps the body for redelivery.
            handler(wire_plain(message["body"]))
            self._send(source, {"op": "ack", "mid": message["mid"]})
