"""Zero-copy wire frames: encode once, decode never on the simulated path.

Every layer of the stack used to pay a full ``dict -> encode -> bytes ->
decode -> dict`` round trip per hop, even though the bytes travel between
functions in the same process. Now every layer — transport, routing,
discovery, replication, heartbeats, the interaction styles of
``transactions/`` and the location service of ``naming/`` — sends a
:class:`WireFrame`: an in-process message that holds its dict and a
lazily materialized, cached encoding.

* It encodes only when something genuinely needs bytes (the secure
  channel, chaos tampering, the WAL, a codec mismatch) —
  ``bytes(frame)`` is always bit-identical to ``codec.encode(message)``,
  enforced by a property test.
* ``len(frame)`` reports the exact encoded length *without* materializing
  (via :meth:`BinaryCodec.encoded_size`), so ``payload_bytes``-driven
  serialization delays, energy charges, and byte counters are unchanged.
* Delivered by reference through the in-process fabrics, the receiver's
  :func:`try_decode_dict` — the one receive decoder — returns the
  original dict with zero decode.

:class:`PrefixedFrame` composes the packed reliable DATA header with a
lazy body, so the reliability layer frames without forcing the body's
encoding.

Contract for receivers: a message dict extracted from a reference-passed
frame is shared with the sender (and every other receiver of a broadcast).
Treat it as immutable — copy (``{**message, ...}``) before patching, which
is what every receive path in this repo already does. An immutable record
(a replication ``LogEntry``, registered with the codec through
:func:`~repro.interop.codec.register_record_type`) or a tuple may be kept
by reference: nobody can change it. A mutable value that is stored or
handed on to application code (an RPC result, an event, a queue body, a
stored tuple, a replicated write's value) goes through
:func:`~repro.interop.codec.wire_plain` first, so the application holds
what bytes on a wire would have produced, never the sender's own object.

Observability: :attr:`WireFrame.materialized` counts forced encodes,
process-wide.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.errors import CodecError, InteropError
from repro.interop.codec import (
    _varint_size,
    _zigzag,
    Codec,
    register_frame_types,
)


class WireFrame:
    """A message and its wire encoding, materialized at most once."""

    __slots__ = ("codec", "message", "_encoded", "_length")

    #: Frames encoded to bytes so far, by every instance in the process.
    materialized = 0

    def __init__(
        self,
        message: Dict[str, Any],
        codec: Codec,
        *,
        length: Optional[int] = None,
    ):
        self.codec = codec
        self.message = message
        self._encoded: Optional[bytes] = None
        self._length = length

    def materialize(self) -> bytes:
        """The encoded bytes — bit-identical to ``codec.encode(message)``."""
        encoded = self._encoded
        if encoded is None:
            encoded = self.codec.encode(self.message)
            self._encoded = encoded
            self._length = len(encoded)
            WireFrame.materialized += 1
        return encoded

    def __bytes__(self) -> bytes:
        return self.materialize()

    @property
    def encoded_length(self) -> int:
        """Exact wire length, computed without materializing when possible."""
        length = self._length
        if length is None:
            sizer = getattr(self.codec, "encoded_size", None)
            if sizer is not None:
                length = sizer(self.message)
            else:
                length = len(self.materialize())
            self._length = length
        return length

    def __len__(self) -> int:
        # Each hop asks several times (transport counters, packet size,
        # energy); every time after the first is this one slot read.
        length = self._length
        return length if length is not None else self.encoded_length

    def derive_int(self, key: str, value: int) -> "WireFrame":
        """A frame for ``{**message, key: value}`` (``key`` must hold an int).

        The derived length is O(1) when ours is known — the routing
        layer's per-hop TTL patch; its bytes, if anything ever needs them,
        are a re-encode of the derived dict.
        """
        message = dict(self.message)
        old = message[key]
        if not isinstance(old, int) or isinstance(old, bool):
            raise CodecError(f"derive_int: field {key!r} is not an int")
        message[key] = value
        length = self._length
        if length is not None:
            length = (length - _varint_size(_zigzag(old))
                      + _varint_size(_zigzag(value)))
        return WireFrame(message, self.codec, length=length)

    def __repr__(self) -> str:
        state = "encoded" if self._encoded is not None else "lazy"
        return f"<WireFrame {self.codec.name} {state} len={self.encoded_length}>"


class PrefixedFrame:
    """A packed binary header plus a lazy body, concatenated only on demand.

    The reliability layer frames its DATA payload with a fixed header;
    when the payload is itself a lazy frame, eager concatenation would
    force its encoding. The receiving twin peels :attr:`prefix` off by
    reference, so the body stays lazy end to end.
    """

    __slots__ = ("prefix", "body", "_encoded")

    def __init__(self, prefix: bytes, body: Union[bytes, "WireFrame", "PrefixedFrame"]):
        self.prefix = prefix
        self.body = body
        self._encoded: Optional[bytes] = None

    def __bytes__(self) -> bytes:
        encoded = self._encoded
        if encoded is None:
            encoded = self._encoded = self.prefix + bytes(self.body)
        return encoded

    def __len__(self) -> int:
        return len(self.prefix) + len(self.body)

    def __repr__(self) -> str:
        return f"<PrefixedFrame {len(self.prefix)}+{len(self.body)}B>"


FRAME_TYPES = (WireFrame, PrefixedFrame)


def split_frame(payload: Union[bytes, bytearray, WireFrame, PrefixedFrame],
                header_size: int):
    """``(header_bytes, body)`` with the body left lazy when possible.

    Returns ``(None, payload)`` when there are fewer than ``header_size``
    bytes (the caller's malformed-frame path). For a :class:`PrefixedFrame`
    whose prefix is exactly the header — the matching sender's shape — the
    split is free; any other frame shape falls back to materialized bytes.
    """
    if isinstance(payload, PrefixedFrame) and len(payload.prefix) == header_size:
        return payload.prefix, payload.body
    if not isinstance(payload, (bytes, bytearray)):
        payload = bytes(payload)
    if len(payload) < header_size:
        return None, payload
    return payload[:header_size], payload[header_size:]


def try_decode_dict(codec: Codec, payload: Any) -> Optional[Dict[str, Any]]:
    """The message dict a received payload holds; ``None`` if malformed.

    The one receive decoder: corrupted or truncated frames (chaos
    injection, buggy peers) are counted and dropped by the caller instead
    of unwinding the simulator event loop with a raise. A
    :class:`WireFrame` of ``codec``'s wire format delivered by reference
    *is* its dict — zero decode. Anything else is decoded from real bytes;
    a frame of another wire format is materialized first, so the receiver
    sees this codec's view of the sender's bytes, as on a real wire.
    """
    if isinstance(payload, WireFrame):
        if payload.codec.name == codec.name:
            message = payload.message
            if not isinstance(message, dict):
                return None
            return message
        payload = payload.materialize()
    elif isinstance(payload, PrefixedFrame):
        payload = bytes(payload)
    elif not isinstance(payload, (bytes, bytearray)):
        return None
    try:
        value = codec.decode(payload)
    except (InteropError, ValueError, OverflowError):
        return None
    return value if isinstance(value, dict) else None


register_frame_types(FRAME_TYPES)
