"""A small synchronous event emitter.

The paper (Section 3.10) asks that middleware "react to events from all
system components". Internally every subsystem publishes lifecycle events
(service registered, QoS violated, node crashed, ...) through this emitter so
other subsystems and applications can observe them without tight coupling.

Delivery is synchronous and in subscription order; handlers must not block.
A handler that raises does not prevent delivery to later handlers — errors
are collected and re-raised as a single :class:`HandlerErrors` after the
emit completes, because errors should never pass silently.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

Handler = Callable[..., None]


class HandlerErrors(Exception):
    """One or more event handlers raised during an emit."""

    def __init__(self, event: str, errors: List[BaseException]):
        super().__init__(
            f"{len(errors)} handler(s) failed for event {event!r}: "
            + "; ".join(repr(e) for e in errors)
        )


class Subscription:
    """A handle returned by :meth:`EventEmitter.on`; call cancel() to detach."""

    __slots__ = ("emitter", "event", "token")

    def __init__(self, emitter: "EventEmitter", event: str,
                 token: int = 0) -> None:
        self.emitter = emitter
        self.event = event
        self.token = token

    def cancel(self) -> None:
        self.emitter.off(self)


class EventEmitter:
    """Maps event names to ordered handler lists."""

    def __init__(self) -> None:
        self._handlers: Dict[str, List[Tuple[int, Handler]]] = {}
        self._next_token = 0

    def on(self, event: str, handler: Handler) -> Subscription:
        """Subscribe ``handler`` to ``event``; returns a cancellable handle."""
        token = self._next_token
        self._next_token += 1
        self._handlers.setdefault(event, []).append((token, handler))
        return Subscription(self, event, token)

    def once(self, event: str, handler: Handler) -> Subscription:
        """Subscribe for a single delivery."""
        subscription_box: List[Subscription] = []

        def wrapper(*args: Any, **kwargs: Any) -> None:
            subscription_box[0].cancel()
            handler(*args, **kwargs)

        subscription = self.on(event, wrapper)
        subscription_box.append(subscription)
        return subscription

    def off(self, subscription: Subscription) -> None:
        """Detach a subscription; detaching twice is a no-op."""
        handlers = self._handlers.get(subscription.event)
        if not handlers:
            return
        self._handlers[subscription.event] = [
            (token, handler)
            for token, handler in handlers
            if token != subscription.token
        ]

    def emit(self, event: str, *args: Any, **kwargs: Any) -> int:
        """Deliver to all current subscribers; returns the delivery count.

        Raises :class:`HandlerErrors` after delivering to everyone if any
        handler raised.
        """
        handlers = list(self._handlers.get(event, ()))
        errors: List[BaseException] = []
        for _token, handler in handlers:
            try:
                handler(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - collected and re-raised
                errors.append(exc)
        if errors:
            raise HandlerErrors(event, errors)
        return len(handlers)
