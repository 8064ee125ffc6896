"""Transport abstraction.

A :class:`Transport` is one node's endpoint onto some network technology:
it can send bytes to an :class:`Address` and delivers received bytes to a
single receiver callback. Delivery is best-effort and unordered — exactly
the guarantee a datagram network gives. Reliability, ordering and
structure are layered on top (see :mod:`repro.transport.reliable`,
:mod:`repro.interop.codec`).

Transports also carry a :class:`Scheduler` so the layers above can set
timers without knowing which world they run in. It is bound once, when the
transport is built: a base transport passes its world's, a wrapping layer
passes its inner transport's.
"""

from __future__ import annotations

import abc
import functools
from typing import Any, Callable, Optional, Protocol

from repro.errors import AddressError, TransportClosedError
from repro.interop.frames import FRAME_TYPES, WireFrame
from repro.obs.tracing import TRACER


@functools.total_ordering
class Address:
    """A (node, port) pair. Rendered as ``"node:port"``.

    ``node`` identifies the endpoint's host on its fabric; ``port`` selects a
    service within the host (discovery, rpc, pubsub, ... each bind one).
    Hashed by value and used as a dict and set key throughout: never
    mutate one after construction.
    """

    __slots__ = ("node", "port")

    def __init__(self, node: str, port: str = "default") -> None:
        self.node = node
        self.port = port

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.node, self.port) == (other.node, other.port)

    def __hash__(self) -> int:
        return hash((self.node, self.port))

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.node, self.port) < (other.node, other.port)

    def __str__(self) -> str:
        return f"{self.node}:{self.port}"

    @staticmethod
    def parse(text: str) -> "Address":
        """Parse ``"node:port"`` (port optional)."""
        if not text:
            raise AddressError("empty address")
        node, sep, port = text.partition(":")
        if not node:
            raise AddressError(f"address {text!r} has no node part")
        return Address(node, port if sep else "default")

Receiver = Callable[[Address, bytes], None]


def drop_malformed(endpoint: Any) -> None:
    """Count a frame ``endpoint`` could not parse; the caller then drops it.

    The one place a malformed frame is counted: a corrupted, truncated or
    wrongly-typed frame is a counted drop in ``malformed_frames``, never a
    raise through the loop. ``MessageEndpoint._on_message``
    (:mod:`repro.transport.endpoint`) calls it for everything an op table
    can tell; the handlers whose verdict needs their own state or two
    fields together call it themselves.
    """
    endpoint.malformed_frames += 1


class Scheduler(Protocol):
    """Timer facility: virtual time under simulation, real time otherwise."""

    def now(self) -> float:
        ...

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Any:
        """Run ``fn(*args)`` after ``delay`` seconds; returns a cancellable handle."""
        ...


class Transport(abc.ABC):
    """One endpoint's best-effort datagram interface.

    ``scheduler`` is the timer facility for this transport's world, a plain
    attribute fixed at construction.
    """

    def __init__(self, local: Address, scheduler: Scheduler):
        self._local = local
        self.scheduler = scheduler
        self._receiver: Optional[Receiver] = None
        self._closed = False
        self.sent_messages = 0
        self.sent_bytes = 0
        self.received_messages = 0
        self.received_bytes = 0

    # ------------------------------------------------------------ properties

    @property
    def local_address(self) -> Address:
        return self._local

    @property
    def closed(self) -> bool:
        return self._closed

    # --------------------------------------------------------------- sending

    def send(self, destination: Address, payload: bytes) -> None:
        """Send bytes (or a lazy wire frame), best-effort. Raises only on
        local errors (closed endpoint, bad address) — remote loss is silent,
        as on a real network.

        Frames (:class:`~repro.interop.frames.WireFrame` /
        :class:`~repro.interop.frames.PrefixedFrame`) travel by reference so
        same-process delivery never forces their encoding; ``len(payload)``
        still reports the exact wire size either way.
        """
        if self._closed:
            raise TransportClosedError(f"{self._local} is closed")
        if payload.__class__ is WireFrame:  # the commonest payload, asked first
            # Sized here, once (raises if it cannot encode); read from then on.
            size = payload._length or payload.encoded_length
        else:
            if isinstance(payload, bytearray):
                payload = bytes(payload)
            elif not isinstance(payload, bytes) and not isinstance(payload, FRAME_TYPES):
                raise TypeError(
                    f"transport payloads must be bytes, got {type(payload).__name__}"
                )
            size = len(payload)
        self.sent_messages += 1
        self.sent_bytes += size
        if TRACER.enabled:
            with TRACER.span(
                "transport.send",
                node=self._local.node,
                layer=type(self).__name__,
                peer=destination.node,
            ):
                self._send(destination, payload)
        else:
            self._send(destination, payload)

    @abc.abstractmethod
    def _send(self, destination: Address, payload: bytes) -> None:
        """Technology-specific transmission."""

    # ------------------------------------------------------------- receiving

    def set_receiver(self, receiver: Optional[Receiver]) -> None:
        """Install the upper-layer receive callback (one per endpoint)."""
        self._receiver = receiver

    def _dispatch(self, source: Address, payload: bytes) -> None:
        """Called by subclasses when bytes arrive for this endpoint."""
        if self._closed:
            return
        self.received_messages += 1
        self.received_bytes += (
            payload.__class__ is WireFrame and payload._length) or len(payload)
        if self._receiver is not None:
            self._receiver(source, payload)

    # --------------------------------------------------------------- closing

    def close(self) -> None:
        """Close the endpoint; further sends raise, further receives drop."""
        self._closed = True
