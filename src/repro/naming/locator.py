"""The location service: logical name -> current physical address.

A home-agent pattern: one :class:`LocationServer` (per administrative
domain) holds versioned bindings; a mobile service re-binds whenever it
attaches somewhere new, and consumers resolve lazily. Versions make
late-arriving updates harmless — a ``move`` carrying an older version than
the current binding is ignored.

Protocol (codec dicts): ``bind`` / ``resolve`` / ``unbind`` with
corresponding acks, plus ``resolve_prefix`` for directory-style listing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import AddressError, NameNotFoundError, NamingError
from repro.interop.codec import Codec, get_codec, try_decode_dict
from repro.interop.frames import WireFrame
from repro.naming.names import LogicalName
from repro.transport.base import Address, Transport, drop_malformed
from repro.util.events import EventEmitter
from repro.util.ids import IdGenerator
from repro.util.promise import Promise


def _is_name(text: Any) -> bool:
    """Whether a frame field spells a logical name."""
    try:
        return isinstance(text, str) and bool(LogicalName.parse(text))
    except NamingError:
        return False


def _is_address(text: Any) -> bool:
    """Whether a frame field spells a transport address."""
    try:
        return isinstance(text, str) and bool(Address.parse(text))
    except AddressError:
        return False


@dataclass
class Binding:
    name: str
    address: str
    version: int


class LocationServer:
    """Holds the name -> address map.

    Events (via :attr:`events`): ``"bound"`` / ``"moved"`` / ``"unbound"``
    with the binding.
    """

    def __init__(self, transport: Transport, codec: Optional[Codec] = None):
        self.transport = transport
        self.codec = codec if codec is not None else get_codec("binary")
        self.events = EventEmitter()
        self._bindings: Dict[str, Binding] = {}
        self.resolves_served = 0
        self.malformed_frames = 0
        transport.set_receiver(self._on_message)

    def binding(self, name: str) -> Optional[Binding]:
        return self._bindings.get(name)

    def __len__(self) -> int:
        return len(self._bindings)

    def _on_message(self, source: Address, payload: bytes) -> None:
        message = try_decode_dict(self.codec, payload)
        if message is None:
            drop_malformed(self)
            return
        op = message.get("op")
        rid = message.get("rid")
        # Every request names something (a stored name that did not parse
        # would fail each later prefix listing); other ops are not ours.
        if op in ("bind", "resolve", "resolve_prefix", "unbind") and not _is_name(
            message.get("prefix" if op == "resolve_prefix" else "name")
        ):
            drop_malformed(self)
            return
        if op == "bind":
            if not (_is_address(message.get("address"))
                    and isinstance(message.get("version", 1), int)):
                drop_malformed(self)
                return
            self._handle_bind(source, rid, message)
        elif op == "resolve":
            self._handle_resolve(source, rid, message)
        elif op == "resolve_prefix":
            self._handle_resolve_prefix(source, rid, message)
        elif op == "unbind":
            self._handle_unbind(source, rid, message)

    def _reply(self, destination: Address, message: Dict[str, Any]) -> None:
        self.transport.send(destination, WireFrame(message, self.codec))

    def _handle_bind(self, source: Address, rid: Any, message: Dict[str, Any]) -> None:
        name = message["name"]
        version = message.get("version", 1)
        existing = self._bindings.get(name)
        accepted = existing is None or version > existing.version
        if accepted:
            binding = Binding(name, message["address"], version)
            self._bindings[name] = binding
            self.events.emit("moved" if existing else "bound", binding)
        self._reply(source, {"op": "bind_ack", "rid": rid, "ok": accepted})

    def _handle_resolve(self, source: Address, rid: Any, message: Dict[str, Any]) -> None:
        self.resolves_served += 1
        binding = self._bindings.get(message["name"])
        self._reply(
            source,
            {
                "op": "resolve_ack",
                "rid": rid,
                "address": binding.address if binding else None,
                "version": binding.version if binding else 0,
            },
        )

    def _handle_resolve_prefix(self, source: Address, rid: Any, message: Dict[str, Any]) -> None:
        self.resolves_served += 1
        prefix = LogicalName.parse(message["prefix"])
        matches = {
            name: binding.address
            for name, binding in self._bindings.items()
            if prefix.is_prefix_of(LogicalName.parse(name))
        }
        self._reply(source, {"op": "resolve_prefix_ack", "rid": rid, "bindings": matches})

    def _handle_unbind(self, source: Address, rid: Any, message: Dict[str, Any]) -> None:
        binding = self._bindings.pop(message["name"], None)
        if binding is not None:
            self.events.emit("unbound", binding)
        self._reply(source, {"op": "unbind_ack", "rid": rid, "ok": binding is not None})


def _is_reply(message: Dict[str, Any]) -> bool:
    """Whether the fields the client's unpackers parse have their types."""
    op = message.get("op")
    if op == "resolve_ack":
        address = message.get("address")
        return address is None or _is_address(address)
    if op == "resolve_prefix_ack":
        bindings = message.get("bindings")
        return isinstance(bindings, dict) and all(
            _is_address(address) for address in bindings.values()
        )
    return True


class LocationClient:
    """A node's handle onto the location server."""

    def __init__(
        self,
        transport: Transport,
        server_address: Address,
        codec: Optional[Codec] = None,
        request_timeout_s: float = 2.0,
    ):
        self.transport = transport
        self.server_address = server_address
        self.codec = codec if codec is not None else get_codec("binary")
        self.request_timeout_s = request_timeout_s
        self._rids = IdGenerator(f"loc:{transport.local_address}")
        self._pending: Dict[str, Promise] = {}
        self._versions: Dict[str, int] = {}
        self.malformed_frames = 0
        transport.set_receiver(self._on_message)

    def _request(self, message: Dict[str, Any]) -> Promise:
        rid = self._rids.next()
        message["rid"] = rid
        promise: Promise = Promise()
        self._pending[rid] = promise
        self.transport.send(self.server_address, WireFrame(message, self.codec))
        self.transport.scheduler.schedule(self.request_timeout_s, self._timeout, rid)
        return promise

    def _timeout(self, rid: str) -> None:
        promise = self._pending.pop(rid, None)
        if promise is not None:
            promise.reject(NameNotFoundError(f"location request {rid} timed out"))

    def _on_message(self, source: Address, payload: bytes) -> None:
        message = try_decode_dict(self.codec, payload)
        if (message is None or not isinstance(message.get("rid"), str)
                or not _is_reply(message)):
            drop_malformed(self)
            return
        promise = self._pending.pop(message["rid"], None)
        if promise is not None:
            promise.fulfill(message)

    # ------------------------------------------------------------ operations

    def bind(self, name: LogicalName, address: Address) -> Promise:
        """Publish (or move) a binding; versions increase monotonically
        per client so a mobile service's newest location always wins."""
        version = self._versions.get(str(name), 0) + 1
        self._versions[str(name)] = version
        return self._request(
            {"op": "bind", "name": str(name), "address": str(address),
             "version": version}
        )

    def resolve(self, name: LogicalName) -> Promise:
        """Fulfills with the current :class:`Address`; rejects with
        :class:`NameNotFoundError` for unknown names."""
        promise = self._request({"op": "resolve", "name": str(name)})
        result: Promise = Promise()

        def unpack(settled: Promise) -> None:
            if settled.rejected:
                result.reject(settled.error())  # type: ignore[arg-type]
                return
            address = settled.result().get("address")
            if address is None:
                result.reject(NameNotFoundError(f"no binding for {name}"))
            else:
                result.fulfill(Address.parse(address))

        promise.on_settle(unpack)
        return result

    def resolve_prefix(self, prefix: LogicalName) -> Promise:
        """Fulfills with a dict of name -> Address under the prefix."""
        promise = self._request({"op": "resolve_prefix", "prefix": str(prefix)})
        result: Promise = Promise()

        def unpack(settled: Promise) -> None:
            if settled.rejected:
                result.reject(settled.error())  # type: ignore[arg-type]
                return
            result.fulfill(
                {
                    name: Address.parse(address)
                    for name, address in settled.result().get("bindings", {}).items()
                }
            )

        promise.on_settle(unpack)
        return result

    def unbind(self, name: LogicalName) -> Promise:
        return self._request({"op": "unbind", "name": str(name)})
