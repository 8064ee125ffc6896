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

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.discovery.matching import AttributeConstraint
from repro.errors import ConfigurationError, DeliveryError
from repro.interop.codec import wire_plain
from repro.transport.base import Address, Transport
from repro.transport.endpoint import (
    MessageEndpoint, list_of, optional, present)
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


#: Frame-field parser: constraints from their wire dicts.
_FILTERS = list_of(AttributeConstraint.from_dict)


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


class _Subscription:
    __slots__ = ("subscriber", "pattern", "filters")

    def __init__(self, subscriber: Address, pattern: str,
                 filters: List[AttributeConstraint]) -> None:
        self.subscriber = subscriber
        self.pattern = pattern
        self.filters = filters


class PubSubBroker(MessageEndpoint):
    """The event dispatcher process."""

    OPS = {
        "sub": ({"pattern": str, "rid": optional(str),
                 "filters": optional(_FILTERS)}, "_on_sub"),
        "unsub": ({"pattern": str}, "_on_unsub"),
        "pub": ({"topic": str, "event": present}, "_fan_out"),
    }

    def __init__(self, transport: Transport):
        super().__init__(transport)
        self._subscriptions: List[_Subscription] = []
        self.events_delivered = 0

    def _on_sub(self, source: Address, message: Dict[str, Any],
                filters: Optional[List[AttributeConstraint]]) -> None:
        self._subscriptions.append(
            _Subscription(source, message["pattern"], filters or []))
        self._ack(source, message)

    def _on_unsub(self, source: Address, message: Dict[str, Any]) -> None:
        self._subscriptions = [
            s
            for s in self._subscriptions
            if not (s.subscriber == source and s.pattern == message["pattern"])
        ]

    def _fan_out(self, source: Address, message: Dict[str, Any]) -> None:
        """One frame per matching subscription, each carrying the event —
        the publisher's own object, which subscribers copy on receipt —
        rather than an encoding of it per subscriber."""
        topic, event = message["topic"], message["event"]
        for subscription in self._subscriptions:
            if not topic_matches(subscription.pattern, topic):
                continue
            if not _content_matches(subscription.filters, event):
                continue
            self.events_delivered += 1
            self._send(
                subscription.subscriber,
                {"op": "event", "topic": topic, "event": event,
                 "pattern": subscription.pattern},
            )


EventHandler = Callable[[str, Any], None]  # (topic, event)

#: How long a client waits for the broker to confirm a subscription.
REQUEST_TIMEOUT_S = 2.0


class PubSubClient(MessageEndpoint):
    """A publisher/subscriber handle onto the broker."""

    OPS = {
        "event": ({"topic": str, "pattern": str, "event": present}, "_on_event"),
        "sub_ack": ({"rid": str}, "_on_reply"),
    }

    def __init__(
        self,
        transport: Transport,
        broker_address: Address,
    ):
        super().__init__(transport, rids="ps")
        self.broker_address = broker_address
        self._handlers: Dict[str, Tuple[EventHandler, List[Dict[str, str]]]] = {}

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
        return self._request(
            self.broker_address,
            # "rid" holds its place on the wire; _request fills it in.
            {"op": "sub", "rid": None, "pattern": pattern, "filters": raw_filters},
            REQUEST_TIMEOUT_S, DeliveryError)

    def publish(self, topic: str, event: Any) -> None:
        """Emit an event; fire-and-forget, as events are."""
        self._send(self.broker_address,
                   {"op": "pub", "topic": topic, "event": event})

    def _on_event(self, source: Address, message: Dict[str, Any]) -> None:
        entry = self._handlers.get(message["pattern"])
        if entry is not None:
            handler, _filters = entry
            # A copy: every subscriber's frame carries the one event.
            handler(message["topic"], wire_plain(message["event"]))
