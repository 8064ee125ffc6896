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

from typing import Any, Dict, Optional

from repro.errors import NameNotFoundError
from repro.naming.names import LogicalName
from repro.transport.base import Address, Transport
from repro.transport.endpoint import MessageEndpoint, checked, optional
from repro.util.events import EventEmitter
from repro.util.promise import Promise


def _bindings(raw: Dict[str, str]) -> Dict[str, Address]:
    """Frame-field parser: a ``name -> address`` listing."""
    return {name: Address.parse(address) for name, address in raw.items()}


_NAME = checked(LogicalName.parse)

#: How long a :class:`LocationClient` request waits for the server's reply.
REQUEST_TIMEOUT_S = 2.0


class Binding:
    __slots__ = ("name", "address", "version")

    def __init__(self, name: str, address: str, version: int) -> None:
        self.name = name
        self.address = address
        self.version = version


class LocationServer(MessageEndpoint):
    """Holds the name -> address map.

    Events (via :attr:`events`): ``"bound"`` / ``"moved"`` / ``"unbound"``
    with the binding.
    """

    # Every request names something (a stored name that did not parse
    # would fail each later prefix listing). Both parsers reject non-strings;
    # bindings are kept, and answered, as the strings that were sent.
    OPS = {
        "bind": ({"name": _NAME, "address": checked(Address.parse),
                  "version": optional(int), "rid": optional(str)},
                 "_handle_bind"),
        "resolve": ({"name": _NAME, "rid": optional(str)}, "_handle_resolve"),
        "resolve_prefix": ({"prefix": LogicalName.parse, "rid": optional(str)},
                           "_handle_resolve_prefix"),
        "unbind": ({"name": _NAME, "rid": optional(str)}, "_handle_unbind"),
    }

    def __init__(self, transport: Transport):
        super().__init__(transport)
        self.events = EventEmitter()
        self._bindings: Dict[str, Binding] = {}

    def binding(self, name: str) -> Optional[Binding]:
        return self._bindings.get(name)

    def __len__(self) -> int:
        return len(self._bindings)

    def _handle_bind(self, source: Address, message: Dict[str, Any]) -> None:
        name = message["name"]
        version = message.get("version", 1)
        existing = self._bindings.get(name)
        accepted = existing is None or version > existing.version
        if accepted:
            binding = Binding(name, message["address"], version)
            self._bindings[name] = binding
            self.events.emit("moved" if existing else "bound", binding)
        self._ack(source, message, ok=accepted)

    def _handle_resolve(self, source: Address, message: Dict[str, Any]) -> None:
        binding = self._bindings.get(message["name"])
        self._ack(source, message,
                  address=binding.address if binding else None,
                  version=binding.version if binding else 0)

    def _handle_resolve_prefix(self, source: Address, message: Dict[str, Any],
                               prefix: LogicalName) -> None:
        matches = {
            name: binding.address
            for name, binding in self._bindings.items()
            if prefix.is_prefix_of(LogicalName.parse(name))
        }
        self._ack(source, message, bindings=matches)

    def _handle_unbind(self, source: Address, message: Dict[str, Any]) -> None:
        binding = self._bindings.pop(message["name"], None)
        if binding is not None:
            self.events.emit("unbound", binding)
        self._ack(source, message, ok=binding is not None)


class LocationClient(MessageEndpoint):
    """A node's handle onto the location server."""

    # A resolve settles with what its reply's parser made of it.
    OPS = {
        "bind_ack": ({"rid": str}, "_on_reply"),
        "unbind_ack": ({"rid": str}, "_on_reply"),
        "resolve_ack": ({"rid": str, "address": optional(Address.parse)},
                        "_on_reply"),
        "resolve_prefix_ack": ({"rid": str, "bindings": _bindings},
                               "_on_reply"),
    }

    def __init__(
        self,
        transport: Transport,
        server_address: Address,
    ):
        super().__init__(transport, rids="loc")
        self.server_address = server_address
        self._versions: Dict[str, int] = {}

    def _ask(self, message: Dict[str, Any]) -> Promise:
        return self._request(self.server_address, message,
                             REQUEST_TIMEOUT_S, NameNotFoundError)

    # ------------------------------------------------------------ operations

    def bind(self, name: LogicalName, address: Address) -> Promise:
        """Publish (or move) a binding; versions increase monotonically
        per client so a mobile service's newest location always wins."""
        version = self._versions.get(str(name), 0) + 1
        self._versions[str(name)] = version
        return self._ask(
            {"op": "bind", "name": str(name), "address": str(address),
             "version": version}
        )

    def resolve(self, name: LogicalName) -> Promise:
        """Fulfills with the current :class:`Address`; rejects with
        :class:`NameNotFoundError` for unknown names."""
        promise = self._ask({"op": "resolve", "name": str(name)})
        result: Promise = Promise()

        def unpack(settled: Promise) -> None:
            if settled.rejected:
                result.reject(settled.error())  # type: ignore[arg-type]
                return
            if settled.result() is None:
                result.reject(NameNotFoundError(f"no binding for {name}"))
            else:
                result.fulfill(settled.result())

        promise.on_settle(unpack)
        return result
