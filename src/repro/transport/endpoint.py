"""The message-endpoint skeleton: decode -> validate -> dispatch, once.

Every protocol above the transports receives the same way: a frame arrives,
decodes to ``{"op": ...}``, is checked, acts, maybe answers. A
:class:`MessageEndpoint` subclass keeps its protocol docstring, its state
and its handlers, and *declares* what it accepts::

    OPS = {"put": ({"queue": str, "body": present, "rid": optional(str)},
                   "_handle_put")}

``op -> ({field: spec}, handler name[, gate name])``. A spec is a type or
tuple of types (``isinstance``), :data:`present` (any value, but the key must
be there), or a *parser* — any other callable, e.g. ``LogEntry.from_wire`` —
which raises one of :data:`MALFORMED` to reject the frame and whose result
is passed to the handler after ``(source, message)``, in declaration order,
so nothing is parsed twice (:class:`checked` around a parser runs it as a
check only, for a handler that keeps the field as sent). :class:`optional`
around a spec lets the sender omit the field (a parser field left out, or
sent as ``None``, reaches the handler as ``None``). A *gate* is a cheap
method ``(source, message) -> bool`` that changes nothing, asked once the
typed fields check out and before any parser runs: false drops the frame
uncounted (a flooded duplicate, a stranger). A handler whose verdict needs
its own state or two fields together (a relay that parses a reply only
when it is the one collecting) calls ``drop_malformed(self)`` and returns
before it changes anything. docs/ARCHITECTURE.md, "Message endpoints", has
the full contract.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.errors import ConfigurationError, DeliveryError, MiddlewareError
from repro.interop.codec import Codec, get_codec
from repro.interop.frames import WireFrame, try_decode_dict
from repro.transport.base import Address, Transport, drop_malformed
from repro.util.ids import IdGenerator
from repro.util.promise import Promise

#: Field spec: the key must be there, whatever it holds.
present = object

#: What a parser of a frame field raises to say "malformed".
MALFORMED = (LookupError, TypeError, ValueError, AttributeError,
             OverflowError, MiddlewareError)

_NOBODY = (None, None)  # the pending entry of a rid nobody awaits


class optional:
    """Field spec: the sender may omit the field (sent, it must fit)."""

    def __init__(self, spec: Any):
        self.spec = spec


class checked:
    """Field spec: ``parser`` must accept the field; the handler is passed
    nothing for it and reads the field as it was sent."""

    def __init__(self, parser: Callable[[Any], Any]):
        self.parser = parser


def list_of(parse: Callable[[Any], Any]) -> Callable[[Any], List[Any]]:
    """A parser for a list field whose every item goes through ``parse``."""

    def parse_list(raw: Any) -> List[Any]:
        if not isinstance(raw, list):
            raise TypeError(f"expected a list, got {type(raw).__name__}")
        return list(map(parse, raw))

    return parse_list


class MessageEndpoint:
    """One protocol endpoint over one transport; see the module docstring."""

    #: ``op -> ({field: spec}, handler name[, gate name])``: what it accepts.
    OPS: Dict[str, Tuple[Any, ...]] = {}
    #: The message key that names the operation.
    OP_FIELD = "op"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        """Compile ``OPS``; a handler or gate that is no method, or a spec
        that is no type, parser, ``checked`` or ``optional``, fails the
        import."""
        super().__init_subclass__(**kwargs)
        cls._ops = {}
        for op, (fields, *names) in cls.OPS.items():
            methods = [getattr(cls, name, None) for name in names]
            if not 1 <= len(names) <= 2 or not all(map(callable, methods)):
                raise ConfigurationError(
                    f"{cls.__name__}: op {op!r} names {names!r}: "
                    f"not a handler method and, at most, a gate method")
            handler, gate = (*methods, None)[:2]
            required, optionals, parsers = [], [], []
            for field, spec in fields.items():
                wanted = not isinstance(spec, optional)
                if not wanted:
                    spec = spec.spec
                passed = not isinstance(spec, checked)
                if not passed:
                    spec = spec.parser
                if isinstance(spec, (type, tuple)):
                    (required if wanted else optionals).append((field, spec))
                elif callable(spec):
                    parsers.append((field, spec, wanted, passed))
                else:
                    raise ConfigurationError(
                        f"{cls.__name__}: op {op!r} field {field!r}: "
                        f"{spec!r} is no type, parser or optional")
            cls._ops[op] = (tuple(required), tuple(optionals), tuple(parsers),
                            handler, gate)

    def __init__(self, transport: Transport, codec: Optional[Codec] = None,
                 rids: Optional[str] = None):
        self.transport = transport
        self.codec = codec if codec is not None else get_codec("binary")
        self.malformed_frames = 0
        if rids is not None:  # a requesting client
            self._rids = IdGenerator(f"{rids}:{transport.local_address}")
            # rid -> (Promise of the reply, the op that reply must be)
            self._pending: Dict[str, Tuple[Promise, str]] = {}
            self.retransmissions = 0
            self.timeouts = 0
        transport.set_receiver(self._on_message)

    # -------------------------------------------------------------- receive

    def _on_message(self, source: Address, payload: bytes) -> None:
        """Decode, look the op up, check its fields, call its handler.

        A frame that is no dict, whose op is no string, or that fails a
        declared field is a counted drop, here and nowhere else; a string
        op the table does not list is not ours and is dropped uncounted
        (forward compatibility over loud failure at a network boundary).
        Nothing raised by decoding or validation leaves here.
        """
        message = try_decode_dict(self.codec, payload)
        try:
            # Subscripts, not calls: these lines run once per message.
            required, optionals, parsers, handler, gate = self._ops[
                message[self.OP_FIELD]]
        except (KeyError, TypeError):  # unlisted, missing, unhashable, no dict
            if message is None or not isinstance(
                    message.get(self.OP_FIELD), str):
                drop_malformed(self)
            return
        try:
            for field, types in required:
                if not isinstance(message[field], types):
                    raise TypeError(field)
            for field, types in optionals:
                if field in message and not isinstance(message[field], types):
                    raise TypeError(field)
        except (KeyError, TypeError):
            drop_malformed(self)
            return
        if gate is not None and not gate(self, source, message):
            return
        if not parsers:
            handler(self, source, message)
            return
        parsed = []
        try:
            for field, parse, wanted, passed in parsers:
                value = message.get(field)
                if value is not None:
                    value = parse(value)
                elif wanted:
                    raise KeyError(field)
                if passed:
                    parsed.append(value)
        except MALFORMED:
            drop_malformed(self)
        else:
            handler(self, source, message, *parsed)

    # ----------------------------------------------------------------- send

    def _send(self, destination: Address, message: Dict[str, Any]) -> None:
        self.transport.send(destination, WireFrame(message, self.codec))

    def _reply(self, destination: Address, op: str, rid: Any,
               **fields: Any) -> None:
        """Send ``{"op": op, "rid": rid, **fields}``: an answer to ``rid``."""
        self._send(destination, {"op": op, "rid": rid, **fields})

    def _ack(self, source: Address, message: Dict[str, Any],
             **fields: Any) -> None:
        """Answer request ``message`` with its ``<op>_ack``, rid echoed."""
        self._reply(source, message["op"] + "_ack", message.get("rid"),
                    **fields)

    # ------------------------------------------------------------- requests

    def _request(self, destination: Address, message: Dict[str, Any],
                 timeout_s: Optional[float] = None,
                 error: Type[Exception] = DeliveryError,
                 retries: int = 0, reply: Optional[str] = None) -> Promise:
        """Send ``message`` under a fresh ``rid``; a Promise of its reply.

        The reply is the op ``reply`` — by default ``<op>_ack``, what
        :meth:`_ack` answers with. With a timeout, the request is
        retransmitted up to ``retries`` times (one lazy frame: it encodes
        at most once), then rejected with ``error``. The timer is never
        cancelled: once the reply has come it fires into an empty slot.
        """
        rid = message["rid"] = self._rids.next()
        promise: Promise = Promise()
        self._pending[rid] = (promise, reply or message["op"] + "_ack")
        frame = WireFrame(message, self.codec)
        self.transport.send(destination, frame)
        if timeout_s is not None:
            self.transport.scheduler.schedule(
                timeout_s, self._expire, rid, destination, frame, timeout_s,
                error, retries)
        return promise

    def _expire(self, rid: str, destination: Address, frame: WireFrame,
                timeout_s: float, error: Type[Exception],
                retries_left: int) -> None:
        if rid not in self._pending:
            return
        if retries_left > 0:
            self.retransmissions += 1
            self.transport.send(destination, frame)
            self.transport.scheduler.schedule(
                timeout_s, self._expire, rid, destination, frame, timeout_s,
                error, retries_left - 1)
            return
        self.timeouts += 1
        self._pending.pop(rid)[0].reject(
            error(f"request {rid} to {destination} timed out"))

    def _on_reply(self, source: Address, message: Dict[str, Any],
                  *parsed: Any) -> None:
        """The plain reply handler: settle the request with what the op's
        parser made of the reply, or with the message if it declares none.
        A reply of another op than the request is answered with is no
        answer to it (its value would be of the wrong kind): dropped like
        one to a rid nobody awaits, uncounted, the request still open."""
        promise, reply = self._pending.get(message["rid"], _NOBODY)
        if reply == message["op"]:
            del self._pending[message["rid"]]
            promise.fulfill(parsed[0] if parsed else message)
