"""Interoperability (Section 3.9).

The paper argues that markup languages give middleware "semantic
independence" and therefore interoperability, at a cost to be weighed
(especially for embedded systems). This package provides both sides of that
tradeoff:

* :mod:`repro.interop.sml` — SML, an XML-subset markup language implemented
  from scratch (parser + serializer),
* :mod:`repro.interop.codec` — pluggable payload codecs: a compact binary
  format, JSON, and SML; the overhead benchmark (E9) measures exactly the
  bytes-per-call cost the paper warns about,
* :mod:`repro.interop.schema` — service-interface descriptions and message
  validation,
* :mod:`repro.interop.bridge` — paradigm bridges (RPC <-> messaging <->
  publish/subscribe) and a middleware-to-middleware gateway.
"""

from repro.interop.codec import BinaryCodec, Codec, JsonCodec, SmlCodec, get_codec
from repro.interop.frames import PrefixedFrame, WireFrame
from repro.interop.schema import FieldSpec, InterfaceSchema, MessageSchema, OperationSpec
from repro.interop.sml import SmlElement, parse, serialize

__all__ = [
    "BinaryCodec",
    "Codec",
    "JsonCodec",
    "SmlCodec",
    "get_codec",
    "PrefixedFrame",
    "WireFrame",
    "FieldSpec",
    "InterfaceSchema",
    "MessageSchema",
    "OperationSpec",
    "SmlElement",
    "parse",
    "serialize",
]
