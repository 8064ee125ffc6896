"""Zero-copy wire frames: encode once, decode never on the simulated path.

Every layer of the stack used to pay a full ``dict -> encode -> bytes ->
decode -> dict`` round trip per hop, even though the bytes travel between
functions in the same process. Now every layer — transport, routing,
discovery, replication, heartbeats, the interaction styles of
``transactions/`` and the location service of ``naming/`` — sends a
:class:`WireFrame`: an in-process message that holds its dict and a
lazily materialized, cached encoding.

* It encodes only when something genuinely needs bytes (the secure
  channel, chaos tampering, the WAL, a codec mismatch, a raw
  ``codec.decode(frame)``) — ``bytes(frame)`` is always bit-identical to
  ``codec.encode(message)``, enforced by a property test.
* ``len(frame)`` reports the exact encoded length *without* materializing
  (via :meth:`BinaryCodec.encoded_size`), so ``payload_bytes``-driven
  serialization delays, energy charges, and byte counters are unchanged.
* Delivered by reference through the in-process fabrics, the receiver's
  :func:`try_decode_dict` — the one receive decoder — returns the
  original dict with zero decode.

:class:`PrefixedFrame` composes a packed binary header (reliable DATA,
multiplexer channel headers) with a lazy body so mid-stack layers frame
without forcing the body's encoding, and :class:`TailIntPacker` is a
compiled packer for fixed-schema beacons whose only varying field is a
trailing int (heartbeats): the constant prefix is encoded once per
configuration and each beat appends one varint.

Contract for receivers: a message dict extracted from a reference-passed
frame is shared with the sender (and every other receiver of a broadcast).
Treat it as immutable — copy (``{**message, ...}``) before patching, which
is what every receive path in this repo already does. A field that is
handed on to application code or kept (an RPC result, an event, a queue
body, a stored tuple) goes through
:func:`~repro.interop.codec.wire_plain` first, so the application holds
what bytes on a wire would have produced, never the sender's own object.

Observability: ``transport.frames.passthrough`` counts zero-decode dict
extractions, ``transport.frames.materialized`` counts forced encodes, and
``codec.encode_skipped`` counts frames consumed without their encode ever
having run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from repro.errors import CodecError, InteropError
from repro.interop.codec import (
    _T_INT,
    _encode_varint,
    _varint_size,
    _zigzag,
    BinaryCodec,
    Codec,
    get_codec,
    register_frame_types,
)
from repro.obs.metrics import get_registry


# Frame counters fire on every zero-copy hop, so the registry lookup
# (label-key build + dict probe) is cached per (registry, generation) — a
# registry.reset() orphans instruments, which the generation detects. One
# validity check serves every counter a hop bumps, and a bump is
# ``_live_counters()[name].value += 1.0``. A counter is still created by
# its first bump, never earlier, so a registry dump lists what happened.
class _Counters(dict):
    registry: Any = None
    generation = -1

    def __missing__(self, name: str) -> Any:
        counter = self[name] = self.registry.counter(name)
        return counter


_counters = _Counters()


def _live_counters() -> _Counters:
    registry = get_registry()
    if (registry is not _counters.registry
            or registry.generation != _counters.generation):
        _counters.clear()
        _counters.registry = registry
        _counters.generation = registry.generation
    return _counters


class WireFrame:
    """A message and its wire encoding, materialized at most once."""

    __slots__ = ("codec", "message", "_encoded", "_length", "_packer")

    def __init__(
        self,
        message: Dict[str, Any],
        codec: Optional[Codec] = None,
        *,
        length: Optional[int] = None,
        packer: Optional[Callable[[], bytes]] = None,
    ):
        self.codec = codec if codec is not None else get_codec("binary")
        self.message = message
        self._encoded: Optional[bytes] = None
        self._length = length
        self._packer = packer

    def materialize(self) -> bytes:
        """The encoded bytes — bit-identical to ``codec.encode(message)``."""
        encoded = self._encoded
        if encoded is None:
            packer = self._packer
            encoded = packer() if packer is not None else self.codec.encode(self.message)
            self._encoded = encoded
            self._length = len(encoded)
            _live_counters()["transport.frames.materialized"].value += 1.0
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

    Mid-stack layers (reliable DATA, channel multiplexing) frame their
    payload with a fixed header; when the payload is itself a lazy frame,
    eager concatenation would force its encoding. The receiving twin peels
    :attr:`prefix` off by reference, so the body stays lazy end to end.
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

FramePayload = Union[bytes, bytearray, WireFrame, PrefixedFrame]


def is_frame(payload: Any) -> bool:
    return isinstance(payload, FRAME_TYPES)


def split_frame(payload: FramePayload, header_size: int):
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
            counters = _live_counters()
            if payload._encoded is None:
                counters["codec.encode_skipped"].value += 1.0
            if not isinstance(message, dict):
                return None
            counters["transport.frames.passthrough"].value += 1.0
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


class TailIntPacker:
    """Compiled packer for a fixed dict whose *last* field is a varying int.

    The schema's constant part — everything up to and including the final
    field's key — is encoded exactly once per configuration; each message
    then costs one cached-prefix concat plus a one-or-two-byte varint.
    Heartbeat beacons (``{"op": "hb", "from": node, "seq": n}``) are the
    canonical user: the beacon prefix is compiled when the detector is
    built, never re-encoded per period.
    """

    __slots__ = ("codec", "base", "field", "prefix", "_prefix_length")

    def __init__(self, codec: BinaryCodec, base: Dict[str, Any], field: str):
        if not isinstance(codec, BinaryCodec):
            raise CodecError("TailIntPacker requires the binary codec")
        if field in base:
            raise CodecError(f"varying field {field!r} must not be in the base")
        self.codec = codec
        self.base = dict(base)
        self.field = field
        probe = dict(base)
        probe[field] = 0
        encoded = codec.encode(probe)
        # encode(0) contributes the 2-byte tail b"I\x00"; everything before
        # it — dict header, base entries, the field's key — is constant.
        self.prefix = encoded[:-2]
        self._prefix_length = len(self.prefix)

    def frame(self, value: int) -> WireFrame:
        """A :class:`WireFrame` for ``{**base, field: value}``."""
        message = dict(self.base)
        message[self.field] = value
        prefix = self.prefix
        return WireFrame(
            message,
            self.codec,
            length=self._prefix_length + 1 + _varint_size(_zigzag(value)),
            packer=lambda: prefix + _T_INT + _encode_varint(_zigzag(value)),
        )
