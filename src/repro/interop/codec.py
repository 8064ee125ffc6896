"""Payload codecs.

A :class:`Codec` turns a JSON-like value (None, bool, int, float, str,
bytes, list, dict with string keys) into wire bytes and back. Three
implementations cover the paper's interoperability tradeoff (Section 3.9):

* :class:`BinaryCodec` — a compact, self-describing binary format written
  from scratch; the "efficient but opaque" end of the spectrum.
* :class:`JsonCodec` — stdlib JSON (bytes values are not supported, matching
  real JSON middleware).
* :class:`SmlCodec` — values as SML markup; the "semantically independent
  but verbose" end the paper advocates for non-legacy interoperability.

Benchmark E9 measures the byte and CPU cost of each on identical RPC
workloads.
"""

from __future__ import annotations

import json
import struct
from sys import intern
from typing import Any, Callable, Dict, Protocol, runtime_checkable

from repro.errors import CodecError
from repro.interop import sml

_F64 = struct.Struct(">d")

# Binary type tags.
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"I"
_T_BIGINT = b"G"
_T_FLOAT = b"D"
_T_STR = b"S"
_T_BYTES = b"B"
_T_LIST = b"L"
_T_DICT = b"M"


def _encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise CodecError(f"varint must be non-negative, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _decode_varint(payload: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(payload):
            raise CodecError("truncated varint")
        byte = payload[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise CodecError("varint too long")


def _zigzag(value: int) -> int:
    """Map a signed 64-bit int onto the unsigned varint domain.

    Contract: ``value`` must satisfy ``-(2**63) <= value < 2**63``; anything
    wider belongs to the BIGINT encoding and is rejected here rather than
    silently mangled.
    """
    if not -(2**63) <= value < 2**63:
        raise CodecError(f"zigzag int out of 64-bit range: {value}")
    return (value << 1) ^ (value >> 63)


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _varint_size(value: int) -> int:
    """Encoded byte count of an unsigned LEB128 varint (without building it)."""
    return max(1, (value.bit_length() + 6) // 7)


# ------------------------------------------------------ the binary walker
#
# One row per value type: ``(size, encode, plain)``. ``size(value)`` is
# exactly ``len`` of what ``encode(value, pieces)`` appends, and the two
# live side by side so a change to one is a change next to the other (a
# Hypothesis property pins the equality for every row, fallback rows
# included). ``plain(value)`` builds what ``decode`` would return for
# those bytes — see :func:`wire_plain` — and is ``None`` where that is the
# value itself. Container rows recurse through the same table.


def _size_tag_only(value: Any) -> int:
    return 1


def _encode_none(value: Any, pieces: list) -> None:
    pieces.append(_T_NONE)


def _encode_bool(value: Any, pieces: list) -> None:
    pieces.append(_T_TRUE if value else _T_FALSE)


def _size_int(value: int) -> int:
    if -(2**63) <= value < 2**63:
        # 1 + _varint_size(_zigzag(value)), inlined: this row runs once per
        # int of every frame the simulator sizes.
        bits = ((value << 1) ^ (value >> 63)).bit_length()
        return 2 if bits < 8 else 1 + (bits + 6) // 7
    length = len(str(value))
    return 1 + _varint_size(length) + length


def _encode_int(value: int, pieces: list) -> None:
    if -(2**63) <= value < 2**63:
        pieces.append(_T_INT + _encode_varint(_zigzag(value)))
    else:
        encoded = str(value).encode("ascii")
        pieces.append(_T_BIGINT + _encode_varint(len(encoded)) + encoded)


def _size_float(value: float) -> int:
    return 1 + _F64.size


def _encode_float(value: float, pieces: list) -> None:
    pieces.append(_T_FLOAT + _F64.pack(value))


def _size_str(value: str) -> int:
    # ASCII is the overwhelmingly common case for ops, ids and addresses;
    # ``isascii`` is a C-speed scan that avoids building the encoded copy.
    length = len(value) if value.isascii() else len(value.encode("utf-8"))
    return (2 if length < 128 else 1 + _varint_size(length)) + length


def _encode_str(value: str, pieces: list) -> None:
    encoded = value.encode("utf-8")
    pieces.append(_T_STR + _encode_varint(len(encoded)) + encoded)


def _size_bytes(value: Any) -> int:
    # bytes, bytearray and lazy frames, whose ``len`` is their (possibly
    # cached) encoded length: sized without materializing.
    length = len(value)
    return 1 + _varint_size(length) + length


def _encode_bytes(value: Any, pieces: list) -> None:
    # ``bytes(frame)`` materializes a nested lazy frame's cached encoding —
    # identical to the eager path, where the upper layer would have handed
    # us those bytes directly.
    data = bytes(value)
    pieces.append(_T_BYTES + _encode_varint(len(data)) + data)


def _size_list(value: Any) -> int:
    rows = _ROWS
    count = len(value)
    total = 2 if count < 128 else 1 + _varint_size(count)
    for item in value:
        try:
            size = rows[type(item)][0]
        except KeyError:
            size = _row_of(type(item))[0]
        total += size(item)
    return total


def _encode_list(value: Any, pieces: list) -> None:
    rows = _ROWS
    pieces.append(_T_LIST + _encode_varint(len(value)))
    for item in value:
        try:
            encode = rows[type(item)][1]
        except KeyError:
            encode = _row_of(type(item))[1]
        encode(item, pieces)


def _plain_list(value: Any) -> list:
    rows = _ROWS
    result = []
    for item in value:
        try:
            plain = rows[type(item)][2]
        except KeyError:
            plain = _row_of(type(item))[2]
        result.append(item if plain is None else plain(item))
    return result


#: ``varint(len) + utf-8`` of dict keys already seen. Protocol field names
#: ("op", "rid", "seq", ...) are a small set that recurs on every frame, so
#: both columns of the dict row read a key's header from here; the cap keeps
#: application-chosen keys (bindings, object ids) from growing it forever.
#: Only ``str`` keys are stored, so only a key equal to one can hit.
_KEY_HEADERS: Dict[str, bytes] = {}
_KEY_HEADERS_MAX = 4096


def _key_header(key: Any) -> bytes:
    if not isinstance(key, str):
        raise CodecError(f"dict keys must be str, got {type(key).__name__}")
    encoded = key.encode("utf-8")
    header = _encode_varint(len(encoded)) + encoded
    if type(key) is str and len(_KEY_HEADERS) < _KEY_HEADERS_MAX:
        _KEY_HEADERS[key] = header
    return header


def _size_dict(value: Any) -> int:
    rows = _ROWS
    headers = _KEY_HEADERS
    count = len(value)
    total = 2 if count < 128 else 1 + _varint_size(count)
    for key, item in value.items():
        try:
            header = headers[key]
        except KeyError:
            header = _key_header(key)
        try:
            size = rows[type(item)][0]
        except KeyError:
            size = _row_of(type(item))[0]
        total += len(header) + size(item)
    return total


def _encode_dict(value: Any, pieces: list) -> None:
    rows = _ROWS
    headers = _KEY_HEADERS
    pieces.append(_T_DICT + _encode_varint(len(value)))
    for key, item in value.items():
        try:
            header = headers[key]
        except KeyError:
            header = _key_header(key)
        pieces.append(header)
        try:
            encode = rows[type(item)][1]
        except KeyError:
            encode = _row_of(type(item))[1]
        encode(item, pieces)


def _plain_dict(value: Any) -> dict:
    rows = _ROWS
    result = {}
    for key, item in value.items():
        try:
            plain = rows[type(item)][2]
        except KeyError:
            plain = _row_of(type(item))[2]
        result[key] = item if plain is None else plain(item)
    return result


#: ``type -> (size, encode, plain)``: an exact type is one probe of a plain
#: ``dict`` (a subclass would lose the interpreter's specialised subscript).
#: A type not in the table (``IntEnum``, ``OrderedDict``, a namedtuple, a
#: ``str`` subclass, ...) raises ``KeyError`` there, and each walker site
#: resolves it through :func:`_row_of`.
_ROWS: Dict[type, tuple] = {
    type(None): (_size_tag_only, _encode_none, None),
    bool: (_size_tag_only, _encode_bool, None),  # before int, its base
    int: (_size_int, _encode_int, None),
    float: (_size_float, _encode_float, None),
    str: (_size_str, _encode_str, None),
    bytes: (_size_bytes, _encode_bytes, None),
    bytearray: (_size_bytes, _encode_bytes, bytes),
    list: (_size_list, _encode_list, _plain_list),
    tuple: (_size_list, _encode_list, _plain_list),
    dict: (_size_dict, _encode_dict, _plain_dict),
}

#: Resolved subclasses are remembered up to this many rows, so a program
#: that keeps minting value classes cannot grow the table.
MAX_ROWS = 256


def _row_of(kind: type) -> tuple:
    """The row of a type not in ``_ROWS``: that of the first entry it
    subclasses in insertion order (the order the rows are listed above),
    remembered so the type is then an exact hit. A type with no such
    entry is unsupported."""
    for base, row in _ROWS.items():
        if issubclass(kind, base):
            break  # leave the loop before the insert below
    else:
        raise CodecError(f"unsupported type {kind.__name__}")
    if len(_ROWS) < MAX_ROWS:
        _ROWS[kind] = row
    return row


def register_frame_types(types: tuple) -> None:
    """Teach the binary walker about lazy frame types (called once by
    :mod:`repro.interop.frames` at import time, which avoids an import
    cycle): a nested frame is a bytes value, materialized on demand."""
    for frame_type in types:
        _ROWS[frame_type] = (_size_bytes, _encode_bytes, bytes)


def register_record_type(kind: type, to_wire: Callable[[Any], dict]) -> None:
    """Teach the binary walker an immutable record that a frame may carry
    by reference (called once by the module that defines it): the record
    is sized, encoded and made plain exactly as its ``to_wire(record)``
    dict, so its bytes, and what decoding them yields, are the dict's.
    JSON and SML know no records and refuse one with :class:`CodecError`."""
    _ROWS[kind] = (
        lambda record: _size_dict(to_wire(record)),
        lambda record, pieces: _encode_dict(to_wire(record), pieces),
        lambda record: _plain_dict(to_wire(record)),
    )


@runtime_checkable
class Codec(Protocol):
    """Encoder/decoder pair with a wire-format name."""

    name: str

    def encode(self, value: Any) -> bytes:
        ...

    def decode(self, payload: bytes) -> Any:
        ...


class BinaryCodec:
    """Compact tagged binary encoding of JSON-like values.

    Integers use zigzag varints and all lengths/counts use LEB128 varints,
    so small values cost one or two bytes — the honest "efficient but
    opaque" contestant in the E9 wire-format comparison."""

    name = "binary"

    def encode(self, value: Any) -> bytes:
        pieces: list[bytes] = []
        try:
            encode = _ROWS[type(value)][1]
        except KeyError:
            encode = _row_of(type(value))[1]
        try:
            encode(value, pieces)
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(f"cannot binary-encode {type(value).__name__}: {exc}") from exc
        return b"".join(pieces)

    def encoded_size(self, value: Any) -> int:
        """``len(self.encode(value))`` without building the bytes.

        Exact by construction — each type's size function sits beside its
        encode function in the walker table (a property test pins the
        equality) — and cheap: no buffer concatenation, no UTF-8 copies
        for ASCII strings, memoised key headers, and nested lazy frames
        contribute their cached ``encoded_length``. This is what lets a
        :class:`~repro.interop.frames.WireFrame` report its wire size
        (the simulator's serialization-delay input) without materializing.
        """
        try:
            size = _ROWS[type(value)][0]
        except KeyError:
            size = _row_of(type(value))[0]
        try:
            return size(value)
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(f"cannot binary-encode {type(value).__name__}: {exc}") from exc

    def decode(self, payload: bytes) -> Any:
        value, offset = self._decode_from(payload, 0)
        if offset != len(payload):
            raise CodecError(f"{len(payload) - offset} trailing bytes after value")
        return value

    def _decode_from(self, payload: bytes, offset: int) -> tuple[Any, int]:
        if offset >= len(payload):
            raise CodecError("truncated payload")
        tag = payload[offset:offset + 1]
        offset += 1
        if tag == _T_NONE:
            return None, offset
        if tag == _T_TRUE:
            return True, offset
        if tag == _T_FALSE:
            return False, offset
        if tag == _T_INT:
            raw_int, offset = _decode_varint(payload, offset)
            return _unzigzag(raw_int), offset
        if tag == _T_FLOAT:
            self._need(payload, offset, _F64.size)
            return _F64.unpack_from(payload, offset)[0], offset + _F64.size
        if tag in (_T_STR, _T_BYTES, _T_BIGINT):
            length, offset = _decode_varint(payload, offset)
            self._need(payload, offset, length)
            raw = payload[offset:offset + length]
            offset += length
            if tag == _T_BYTES:
                return raw, offset
            if tag == _T_BIGINT:
                # ``int()`` tolerates "+5", whitespace, and "5_0" — all
                # non-canonical spellings our encoder never emits. Accept
                # only digits that round-trip, so every value has exactly
                # one wire form (decode(encode(x)) == x and vice versa).
                text = raw.decode("ascii")
                try:
                    value = int(text)
                except ValueError as exc:
                    raise CodecError(f"bad bigint text {text!r}") from exc
                if str(value) != text:
                    raise CodecError(f"non-canonical bigint text {text!r}")
                return value, offset
            return raw.decode("utf-8"), offset
        if tag == _T_LIST:
            count, offset = _decode_varint(payload, offset)
            items = []
            for _ in range(count):
                item, offset = self._decode_from(payload, offset)
                items.append(item)
            return items, offset
        if tag == _T_DICT:
            count, offset = _decode_varint(payload, offset)
            result: Dict[str, Any] = {}
            for _ in range(count):
                key_length, offset = _decode_varint(payload, offset)
                self._need(payload, offset, key_length)
                # Frame field names ("op", "seq", "src", ...) recur on every
                # decoded frame; interning collapses the per-frame key
                # copies to shared singletons and makes downstream dict
                # lookups pointer-compares — measurable at swarm scale.
                key = intern(payload[offset:offset + key_length].decode("utf-8"))
                offset += key_length
                result[key], offset = self._decode_from(payload, offset)
            return result, offset
        raise CodecError(f"unknown type tag {tag!r} at offset {offset - 1}")

    @staticmethod
    def _need(payload: bytes, offset: int, count: int) -> None:
        if offset + count > len(payload):
            raise CodecError("truncated payload")


class JsonCodec:
    """Stdlib JSON; rejects bytes values like real JSON middleware does.

    ``allow_nan=False`` keeps the output *standard* JSON: ``float("nan")``
    and infinities raise :class:`CodecError` instead of silently emitting
    the non-interoperable ``NaN``/``Infinity`` tokens that a compliant peer
    would reject on receive.
    """

    name = "json"

    def encode(self, value: Any) -> bytes:
        try:
            return json.dumps(
                value, separators=(",", ":"), allow_nan=False
            ).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise CodecError(f"cannot JSON-encode: {exc}") from exc

    def decode(self, payload: bytes) -> Any:
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CodecError(f"cannot JSON-decode: {exc}") from exc


class SmlCodec:
    """Values as SML markup — the paper's markup-based interoperability path.

    Mapping: ``<null/>``, ``<bool>true</bool>``, ``<int>3</int>``,
    ``<float>1.5</float>``, ``<str>hi</str>``, ``<bytes>hex</bytes>``,
    ``<list>...</list>``, ``<dict><entry key="k">value</entry></dict>``.
    """

    name = "sml"

    def encode(self, value: Any) -> bytes:
        return sml.serialize(self._to_element(value)).encode("utf-8")

    def decode(self, payload: bytes) -> Any:
        try:
            root = sml.parse(payload.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CodecError(f"SML payload is not UTF-8: {exc}") from exc
        return self._from_element(root)

    def _to_element(self, value: Any) -> sml.SmlElement:
        if value is None:
            return sml.element("null")
        if value is True or value is False:
            return sml.element("bool", text="true" if value else "false")
        if isinstance(value, int):
            return sml.element("int", text=str(value))
        if isinstance(value, float):
            return sml.element("float", text=repr(value))
        if isinstance(value, str):
            return sml.element("str", text=value)
        if isinstance(value, (bytes, bytearray)):
            return sml.element("bytes", text=bytes(value).hex())
        if isinstance(value, (list, tuple)):
            node = sml.element("list")
            for item in value:
                node.append(self._to_element(item))
            return node
        if isinstance(value, dict):
            node = sml.element("dict")
            for key, item in value.items():
                if not isinstance(key, str):
                    raise CodecError(f"dict keys must be str, got {type(key).__name__}")
                entry = node.add("entry", key=key)
                entry.append(self._to_element(item))
            return node
        raise CodecError(f"unsupported type {type(value).__name__}")

    def _from_element(self, node: sml.SmlElement) -> Any:
        tag = node.tag
        if tag == "null":
            return None
        if tag == "bool":
            if node.text not in ("true", "false"):
                raise CodecError(f"bad bool text {node.text!r}")
            return node.text == "true"
        if tag == "int":
            try:
                return int(node.text)
            except ValueError as exc:
                raise CodecError(f"bad int text {node.text!r}") from exc
        if tag == "float":
            try:
                return float(node.text)
            except ValueError as exc:
                raise CodecError(f"bad float text {node.text!r}") from exc
        if tag == "str":
            return node.text
        if tag == "bytes":
            try:
                return bytes.fromhex(node.text)
            except ValueError as exc:
                raise CodecError(f"bad hex text {node.text!r}") from exc
        if tag == "list":
            return [self._from_element(child) for child in node.children]
        if tag == "dict":
            result: Dict[str, Any] = {}
            for entry in node.children:
                if entry.tag != "entry" or "key" not in entry.attributes:
                    raise CodecError(f"bad dict entry <{entry.tag}>")
                if len(entry.children) != 1:
                    raise CodecError(
                        f"dict entry {entry.attributes.get('key')!r} must have one value"
                    )
                result[entry.attributes["key"]] = self._from_element(entry.children[0])
            return result
        raise CodecError(f"unknown SML value tag <{tag}>")


_CODECS: Dict[str, Codec] = {
    codec.name: codec for codec in (BinaryCodec(), JsonCodec(), SmlCodec())
}


def get_codec(name: str) -> Codec:
    """Look up a codec by wire-format name ('binary', 'json', 'sml')."""
    try:
        return _CODECS[name]
    except KeyError:
        raise CodecError(
            f"unknown codec {name!r}; available: {sorted(_CODECS)}"
        ) from None


def wire_plain(value: Any) -> Any:
    """``value`` as a receiver would hold it had it crossed the wire as bytes.

    A dict extracted from a reference-passed frame is the sender's own
    object. An immutable record or a tuple may be kept by reference as it
    is; a mutable value that is stored or handed on to application code
    (an RPC result, a published event, a queue body, a shared-object or
    replicated value) goes through here first: containers are rebuilt
    all the way down, a tuple arrives as a list, a bytearray as bytes and
    a registered record as its dict form — what ``decode(encode(value))``
    yields — while scalars, which are immutable, pass by reference at no
    cost.
    """
    try:
        plain = _ROWS[type(value)][2]
    except KeyError:
        plain = _row_of(type(value))[2]
    return value if plain is None else plain(value)
