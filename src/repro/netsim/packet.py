"""Packets: the unit of simulated communication.

A packet carries an opaque payload plus the addressing and size metadata the
medium needs. Payload bytes are never inspected by the simulator; size is
explicit so upper layers can account header overhead honestly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.obs.tracing import Span

#: Broadcast destination sentinel.
BROADCAST = "*"

#: Default link-layer header overhead charged per packet (bytes).
HEADER_BYTES = 16


class Packet:
    """A simulated frame.

    Slotted: a 10k-node broadcast world holds hundreds of thousands of live
    frames, and a per-instance ``__dict__`` dominated their footprint. A
    packet holds only what something reads. ``==`` and ``repr`` compare
    and show the five fields in order.

    Attributes:
        source: node id of the original sender.
        destination: node id, or :data:`BROADCAST`.
        payload: opaque application payload (any picklable object).
        payload_bytes: accounted size of the payload.
        trace: the span a traced send carries to the receiver's
            deliver span; ``None`` unless tracing set it.
    """

    __slots__ = ("source", "destination", "payload", "payload_bytes", "trace")

    def __init__(self, source: str, destination: str, payload: Any,
                 payload_bytes: int, trace: Optional["Span"] = None) -> None:
        if payload_bytes < 0:
            raise ConfigurationError(
                f"payload_bytes must be >= 0, got {payload_bytes!r}"
            )
        self.source = source
        self.destination = destination
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.trace = trace

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields()))
        return f"Packet({fields})"

    @property
    def size_bytes(self) -> int:
        """Total on-air size including link-layer header."""
        return self.payload_bytes + HEADER_BYTES

    @property
    def size_bits(self) -> int:
        return self.size_bytes * 8

    @property
    def is_broadcast(self) -> bool:
        return self.destination == BROADCAST
