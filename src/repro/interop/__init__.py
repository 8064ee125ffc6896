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
* :mod:`repro.interop.frames` — the frame every message crosses a transport
  in,
* :mod:`repro.interop.schema` — service-interface descriptions and message
  validation.

It is the wire format only, so it sits below the simulator, whose corruptor
gates on frame types. What joins paradigms and formats on top of it lives
with the protocols it joins: :mod:`repro.transactions.bridge` (the
RPC -> pub/sub bridge) and :mod:`repro.discovery.webserver` (the embedded
web server).
"""

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "BinaryCodec": "repro.interop.codec",
    "Codec": "repro.interop.codec",
    "JsonCodec": "repro.interop.codec",
    "SmlCodec": "repro.interop.codec",
    "get_codec": "repro.interop.codec",
    "PrefixedFrame": "repro.interop.frames",
    "WireFrame": "repro.interop.frames",
    "FieldSpec": "repro.interop.schema",
    "InterfaceSchema": "repro.interop.schema",
    "MessageSchema": "repro.interop.schema",
    "OperationSpec": "repro.interop.schema",
    "SmlElement": "repro.interop.sml",
    "parse": "repro.interop.sml",
    "serialize": "repro.interop.sml",
})
