"""Event-based publish/subscribe.

The event middleware of the literature review ([67, 68]): publishers emit
events on dot-separated topics (``"patient.bp.alarm"``); subscribers give
topic patterns where ``*`` matches one segment and ``#`` matches any
remaining suffix, optionally with content filters over dict-valued events.
The broker fans out; neither side knows the other — Section 3.10's
"the middleware should react to events from all system components".

Protocol (codec dicts)::

    sub:   {"op": "sub", "rid": id, "pattern": p [, "filters": [...]]}
    unsub: {"op": "unsub", "pattern": p}
    pub:   {"op": "pub", "topic": t, "event": v}
    event: {"op": "event", "topic": t, "event": v, "pattern": p}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.discovery.matching import AttributeConstraint
from repro.errors import ConfigurationError, DiscoveryError
from repro.interop.codec import Codec, get_codec, try_decode_dict, wire_plain
from repro.interop.frames import WireFrame
from repro.transport.base import Address, Transport, drop_malformed
from repro.util.ids import IdGenerator
from repro.util.promise import Promise


def topic_matches(pattern: str, topic: str) -> bool:
    """Match ``a.*.c`` / ``a.#`` patterns against a concrete topic."""
    if not pattern or not topic:
        return False
    pattern_parts = pattern.split(".")
    topic_parts = topic.split(".")
    for i, part in enumerate(pattern_parts):
        if part == "#":
            return True
        if i >= len(topic_parts):
            return False
        if part != "*" and part != topic_parts[i]:
            return False
    return len(pattern_parts) == len(topic_parts)


def _parse_filters(raw: Any) -> Optional[List[AttributeConstraint]]:
    """Constraints from their wire dicts; None if the field is malformed."""
    if not isinstance(raw, list):
        return None
    try:
        filters = [AttributeConstraint.from_dict(f) for f in raw]
    except (KeyError, TypeError, DiscoveryError):
        return None
    if all(isinstance(f.name, str) and isinstance(f.value, str) for f in filters):
        return filters
    return None


def _content_matches(filters: List[AttributeConstraint], event: Any) -> bool:
    """Apply attribute constraints to dict events (non-dicts fail filters)."""
    if not filters:
        return True
    if not isinstance(event, dict):
        return False
    # Values read as the wire would show them (a tuple as a list), so a
    # filter matches the same whether the event came by reference or bytes.
    attributes = {k: str(wire_plain(v)) for k, v in event.items()}
    return all(f.matches(attributes) for f in filters)


@dataclass
class _Subscription:
    subscriber: Address
    pattern: str
    filters: List[AttributeConstraint] = field(default_factory=list)


class PubSubBroker:
    """The event dispatcher process."""

    def __init__(self, transport: Transport, codec: Optional[Codec] = None):
        self.transport = transport
        self.codec = codec if codec is not None else get_codec("binary")
        self._subscriptions: List[_Subscription] = []
        self.events_published = 0
        self.events_delivered = 0
        self.malformed_frames = 0
        transport.set_receiver(self._on_message)

    def subscription_count(self) -> int:
        return len(self._subscriptions)

    def _on_message(self, source: Address, payload: bytes) -> None:
        message = try_decode_dict(self.codec, payload)
        if message is None:
            drop_malformed(self)
            return
        op = message.get("op")
        if op == "sub":
            pattern = message.get("pattern")
            filters = _parse_filters(message.get("filters", []))
            if not isinstance(pattern, str) or filters is None:
                drop_malformed(self)
                return
            self._subscriptions.append(_Subscription(source, pattern, filters))
            self.transport.send(
                source,
                WireFrame({"op": "sub_ack", "rid": message.get("rid")}, self.codec),
            )
        elif op == "unsub":
            pattern = message.get("pattern")
            if not isinstance(pattern, str):
                drop_malformed(self)
                return
            self._subscriptions = [
                s
                for s in self._subscriptions
                if not (s.subscriber == source and s.pattern == pattern)
            ]
        elif op == "pub":
            topic = message.get("topic")
            if not isinstance(topic, str) or "event" not in message:
                drop_malformed(self)
                return
            self._fan_out(topic, message["event"])

    def _fan_out(self, topic: str, event: Any) -> None:
        """One frame per matching subscription, each carrying ``event`` —
        the publisher's own object, which subscribers copy on receipt —
        rather than an encoding of it per subscriber."""
        self.events_published += 1
        for subscription in self._subscriptions:
            if not topic_matches(subscription.pattern, topic):
                continue
            if not _content_matches(subscription.filters, event):
                continue
            self.events_delivered += 1
            self.transport.send(
                subscription.subscriber,
                WireFrame(
                    {"op": "event", "topic": topic, "event": event,
                     "pattern": subscription.pattern},
                    self.codec,
                ),
            )


EventHandler = Callable[[str, Any], None]  # (topic, event)


class PubSubClient:
    """A publisher/subscriber handle onto the broker."""

    def __init__(
        self,
        transport: Transport,
        broker_address: Address,
        codec: Optional[Codec] = None,
        request_timeout_s: float = 2.0,
    ):
        self.transport = transport
        self.broker_address = broker_address
        self.codec = codec if codec is not None else get_codec("binary")
        self.request_timeout_s = request_timeout_s
        self._rids = IdGenerator(f"ps:{transport.local_address}")
        self._pending: Dict[str, Promise] = {}
        self._handlers: Dict[str, Tuple[EventHandler, List[Dict[str, str]]]] = {}
        self.events_received = 0
        self.malformed_frames = 0
        transport.set_receiver(self._on_message)

    def subscribe(
        self,
        pattern: str,
        handler: EventHandler,
        filters: Optional[List[AttributeConstraint]] = None,
    ) -> Promise:
        """Subscribe to a topic pattern with optional content filters."""
        if pattern in self._handlers:
            raise ConfigurationError(f"already subscribed to {pattern!r}")
        raw_filters = [f.to_dict() for f in (filters or [])]
        self._handlers[pattern] = (handler, raw_filters)
        rid = self._rids.next()
        promise: Promise = Promise()
        self._pending[rid] = promise
        self.transport.send(
            self.broker_address,
            WireFrame(
                {"op": "sub", "rid": rid, "pattern": pattern, "filters": raw_filters},
                self.codec,
            ),
        )
        self.transport.scheduler.schedule(self.request_timeout_s, self._timeout, rid)
        return promise

    def unsubscribe(self, pattern: str) -> None:
        self._handlers.pop(pattern, None)
        self.transport.send(
            self.broker_address,
            WireFrame({"op": "unsub", "pattern": pattern}, self.codec),
        )

    def publish(self, topic: str, event: Any) -> None:
        """Emit an event; fire-and-forget, as events are."""
        self.transport.send(
            self.broker_address,
            WireFrame({"op": "pub", "topic": topic, "event": event}, self.codec),
        )

    def _timeout(self, rid: str) -> None:
        promise = self._pending.pop(rid, None)
        if promise is not None:
            from repro.errors import DeliveryError

            promise.reject(DeliveryError(f"broker request {rid} timed out"))

    def _on_message(self, source: Address, payload: bytes) -> None:
        message = try_decode_dict(self.codec, payload)
        if message is None:
            drop_malformed(self)
            return
        if message.get("op") == "event":
            topic = message.get("topic")
            pattern = message.get("pattern")
            if (not isinstance(topic, str) or not isinstance(pattern, str)
                    or "event" not in message):
                drop_malformed(self)
                return
            entry = self._handlers.get(pattern)
            if entry is not None:
                handler, _filters = entry
                self.events_received += 1
                # A copy: every subscriber's frame carries the one event.
                handler(topic, wire_plain(message["event"]))
            return
        rid = message.get("rid")
        if not isinstance(rid, str):
            drop_malformed(self)
            return
        promise = self._pending.pop(rid, None)
        if promise is not None:
            promise.fulfill(message)
