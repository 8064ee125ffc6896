"""The routing layer's chassis: agents, envelopes, and routed transports.

One :class:`RoutingAgent` runs per node, bound to the reserved ``route``
port. Upper layers open :class:`RoutedTransport` ports *through* the agent;
sends become :class:`Envelope` frames forwarded hop-by-hop according to the
node's :class:`Router` strategy. When an envelope reaches its destination
node the agent injects the inner payload into the target port, so the upper
layer cannot tell a multi-hop path from a direct one — which is exactly what
lets discovery, RPC, and MiLAN run unchanged over any routing strategy.

Envelope wire form (codec dict, kept terse because every byte is charged to
the radio)::

    {"s": "src node:port", "d": "dst node:port", "t": ttl,
     "q": seq, "b": payload bytes [, "r": [source route]]}

Control traffic (router-specific, e.g. DSR RREQ/RREP) uses ``{"c": ...}``
dicts on the same port and is handed to the router.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, MiddlewareError
from repro.interop.codec import get_codec
from repro.interop.frames import FRAME_TYPES, WireFrame, try_decode_dict
from repro.obs.tracing import TRACER, Span
from repro.transport.base import Address, Scheduler, Transport
from repro.transport.simnet import BROADCAST_NODE, SimFabric, SimTransport
from repro.util.ids import SequenceGenerator

ROUTE_PORT = "route"
DEFAULT_TTL = 32

#: What an envelope's ``"b"`` field may hold.
_BODY_TYPES = (bytes, bytearray) + FRAME_TYPES


def heard_before(seen: Dict[str, Set[int]], origin: str, seq: int) -> bool:
    """Whether ``(origin, seq)`` is in the duplicate table ``seen``; records
    it if not.

    Every router keeps its dedup state in this one shape, origin -> the seqs
    heard from it: one int per heard flood, not a tuple, and the same
    answer as a set of ``(origin, seq)`` pairs. ``RoutingAgent._on_frame``
    runs the same test inline, as it runs once per reception.
    """
    seqs = seen.get(origin)
    if seqs is None:
        seen[origin] = {seq}
        return False
    if seq in seqs:
        return True
    seqs.add(seq)
    return False


class Envelope:
    """A multi-hop datagram."""

    __slots__ = ("source", "destination", "ttl", "seq", "payload", "route",
                 "trace_ctx", "wire")

    def __init__(self, source: Address, destination: Address, ttl: int,
                 seq: int, payload: bytes,
                 route: Optional[List[str]] = None) -> None:
        self.source = source
        self.destination = destination
        self.ttl = ttl
        self.seq = seq
        self.payload = payload
        self.route = route  # explicit source route, if any
        # In-memory only — never serialized into the wire dict. Carries the
        # originating span while an envelope sits in router queues (e.g.
        # DSR awaiting route discovery).
        self.trace_ctx: Optional[Span] = None
        # In-memory only: the lazy frame this envelope arrived as, when its wire
        # dict is known to round-trip through to_dict() byte-for-byte. Lets a
        # forward derive the next frame (ttl patched, length O(1)) from it.
        self.wire: Optional[WireFrame] = None

    def to_dict(self) -> Dict[str, Any]:
        message: Dict[str, Any] = {
            "s": str(self.source),
            "d": str(self.destination),
            "t": self.ttl,
            "q": self.seq,
            "b": self.payload,
        }
        if self.route is not None:
            message["r"] = list(self.route)
        return message


#: What a router tells the agent to do with an envelope.
#: ("forward", next_hop) / ("flood", None) / ("queued", None) / ("drop", why)
Disposition = Tuple[str, Optional[str]]


class Router(abc.ABC):
    """A per-node routing strategy."""

    def attach(self, agent: "RoutingAgent") -> None:
        """Called once when installed; override to keep the agent handle."""
        self.agent = agent

    @abc.abstractmethod
    def route(self, envelope: Envelope) -> Disposition:
        """Decide the fate of an envelope not addressed to this node."""

    def handle_control(self, source: Address, message: Dict[str, Any]) -> None:
        """Process router-specific control traffic (default: ignore)."""

    def handle_broken_link(self, envelope: Envelope, next_hop: str) -> Disposition:
        """The link-layer reported the next hop dead (modeling a missing
        link-layer ack). Default: give up on this envelope. Routers with
        route maintenance (DSR) override this to repair and retry."""
        return ("drop", "broken-link")


class RoutingAgent:
    """The per-node forwarding engine."""

    def __init__(
        self,
        fabric: SimFabric,
        node_id: str,
        router: Router,
        default_ttl: int = DEFAULT_TTL,
    ):
        if default_ttl < 1:
            raise ConfigurationError(f"ttl must be >= 1, got {default_ttl!r}")
        self.fabric = fabric
        self.node_id = node_id
        self.router = router
        self.codec = get_codec("binary")
        self.default_ttl = default_ttl
        self.endpoint: SimTransport = fabric.endpoint(node_id, ROUTE_PORT)
        self.scheduler: Scheduler = self.endpoint.scheduler
        self._seq = SequenceGenerator(1)
        # The duplicate table (see heard_before): origin "node:port" text ->
        # the seqs heard from it, this node's own floods included. Exact:
        # ints hash and compare by value, so True, 0, negative and huge seqs
        # decide as they would in a (text, seq) pair. It only grows: a lossy
        # window would change which late floods are accepted.
        self._seen: Dict[str, Set[int]] = {}
        # "node:port" as received -> (Address, str(Address)); bounded.
        self._addresses: Dict[str, Tuple[Address, str]] = {}
        self._ports: Dict[str, "RoutedTransport"] = {}
        self.originated = 0
        self.forwarded = 0
        self.delivered = 0
        self.dropped: Dict[str, int] = {}
        self.endpoint.set_receiver(self._on_frame)
        router.attach(self)

    # ------------------------------------------------------------- upper API

    def open_port(self, port: str) -> "RoutedTransport":
        """A multi-hop transport for ``port`` on this node.

        The port is also bound on the fabric, so one-hop frames addressed
        directly to it (broadcasts, neighbor unicasts) are delivered too —
        multi-hop and single-hop traffic converge on the same receiver.
        """
        if port == ROUTE_PORT:
            raise ConfigurationError(f"port {ROUTE_PORT!r} is reserved for routing")
        if port in self._ports:
            raise ConfigurationError(f"routed port {port!r} already open on {self.node_id}")
        transport = RoutedTransport(Address(self.node_id, port), self)
        self._ports[port] = transport
        self.fabric.bind(self.node_id, port, transport)
        return transport

    def close_port(self, port: str) -> None:
        if self._ports.pop(port, None) is not None:
            self.fabric.remove(Address(self.node_id, port))

    # --------------------------------------------------------------- sending

    def originate(self, source: Address, source_text: str,
                  destination: Address, payload: bytes) -> None:
        """Start an envelope from this node's port ``source`` (whose
        ``str()`` is ``source_text``)."""
        if destination.node == BROADCAST_NODE:
            # One-hop broadcast is a link-layer affair: no routing involved.
            self.fabric._transmit(source, destination, payload)
            return
        envelope = Envelope(
            source=source,
            destination=destination,
            ttl=self.default_ttl,
            seq=self._seq.next(),
            payload=payload,
        )
        self.originated += 1
        self._seen.setdefault(source_text, set()).add(envelope.seq)
        if TRACER.enabled:
            with TRACER.span("route.originate", node=self.node_id,
                             dest=destination.node, seq=envelope.seq) as span:
                envelope.trace_ctx = span
                self._move(envelope)
        else:
            self._move(envelope)

    def _move(self, envelope: Envelope) -> None:
        """Deliver locally or ask the router where to send next."""
        if envelope.destination.node == self.node_id:
            self.delivered += 1
            if TRACER.enabled:
                with TRACER.span("route.deliver", parent=envelope.trace_ctx,
                                 node=self.node_id,
                                 port=envelope.destination.port,
                                 hops=self.default_ttl - envelope.ttl):
                    self._deliver_local(envelope)
            else:
                self._deliver_local(envelope)
            return
        if envelope.ttl <= 0:
            self._drop("ttl")
            return
        # Source-routed envelopes follow their route without consulting
        # the router.
        if envelope.route:
            self._follow_source_route(envelope)
            return
        self._apply_disposition(envelope, self.router.route(envelope))

    def _deliver_local(self, envelope: Envelope) -> None:
        local = self._ports.get(envelope.destination.port)
        if local is not None and not local.closed:
            local._dispatch(envelope.source, envelope.payload)
        else:
            # Not a routed port here; maybe a raw fabric endpoint.
            self.fabric.inject(envelope.destination, envelope.source, envelope.payload)

    def _apply_disposition(self, envelope: Envelope, disposition: Disposition) -> None:
        action, argument = disposition
        if action == "forward":
            assert argument is not None
            self.forward_to(argument, envelope)
        elif action == "flood":
            self.flood(envelope)
        elif action == "queued":
            pass  # router owns it now (e.g. DSR awaiting route discovery)
        else:
            self._drop(argument or "router")

    def _follow_source_route(self, envelope: Envelope) -> None:
        route = envelope.route or []
        try:
            index = route.index(self.node_id)
        except ValueError:
            self._drop("not-on-route")
            return
        if index + 1 >= len(route):
            self._drop("route-exhausted")
            return
        next_hop = route[index + 1]
        if not self._hop_alive(next_hop):
            # Link-layer ack failure: let the router repair (DSR route
            # maintenance) instead of black-holing the envelope. The stale
            # source route is stripped so a repaired path can be attached.
            envelope.route = None
            self._apply_disposition(
                envelope, self.router.handle_broken_link(envelope, next_hop)
            )
            return
        self.forward_to(next_hop, envelope)

    def _hop_alive(self, node_id: str) -> bool:
        """Models the link-layer ack a real radio gives per-hop senders."""
        network = self.fabric.network
        return node_id in network and network.node(node_id).alive

    def _frame_for(self, envelope: Envelope):
        """The wire frame for ``envelope``'s next hop: its fields, ttl - 1.

        When the envelope arrived as a canonical wire dict
        (``envelope.wire``) and the router changed nothing since, the hop
        costs a ttl patch on the cached frame — the flood fast path.
        Everything else (originations, DSR route edits) builds a fresh lazy
        frame from ``to_dict()``. Overridden by the eager-codec baseline in
        ``benchmarks/bench_wire.py``.
        """
        wire = envelope.wire
        if wire is not None:
            message = wire.message
            if (message["b"] is envelope.payload
                    and message.get("r") == envelope.route):
                return wire.derive_int("t", envelope.ttl - 1)
        message = envelope.to_dict()
        message["t"] -= 1
        return WireFrame(message, self.codec)

    def forward_to(self, next_hop: str, envelope: Envelope) -> None:
        """Send an envelope one hop (decrements TTL)."""
        self.forwarded += 1
        frame = self._frame_for(envelope)
        if TRACER.enabled:
            with TRACER.span("route.forward", parent=envelope.trace_ctx,
                             node=self.node_id, next_hop=next_hop,
                             dest=envelope.destination.node, seq=envelope.seq):
                self.endpoint.send(Address(next_hop, ROUTE_PORT), frame)
        else:
            self.endpoint.send(Address(next_hop, ROUTE_PORT), frame)

    def flood(self, envelope: Envelope) -> None:
        """Broadcast an envelope to all neighbors (decrements TTL)."""
        self.forwarded += 1
        frame = self._frame_for(envelope)
        if TRACER.enabled:
            with TRACER.span("route.flood", parent=envelope.trace_ctx,
                             node=self.node_id,
                             dest=envelope.destination.node, seq=envelope.seq):
                self.endpoint.broadcast(frame)
        else:
            self.endpoint.broadcast(frame)

    def send_control(self, destination: Optional[str], message: Dict[str, Any]) -> None:
        """Router control traffic: unicast to a node, or broadcast if None.

        The message dict is captured in a lazy frame — callers must not
        mutate it after this call (all in-tree routers build fresh dicts).
        """
        payload = WireFrame(message, self.codec)
        if destination is None:
            self.endpoint.broadcast(payload)
        else:
            self.endpoint.send(Address(destination, ROUTE_PORT), payload)

    # ------------------------------------------------------------- receiving

    def _on_frame(self, source: Address, payload: bytes) -> None:
        # Corrupted or truncated frames (chaos injection) are dropped and
        # counted, never raised — a raise would abort the simulator run.
        message = try_decode_dict(self.codec, payload)
        if message is None:
            self._drop("malformed")
            return
        if "c" in message:
            if TRACER.enabled:
                with TRACER.span("route.control", node=self.node_id,
                                 peer=source.node):
                    self.router.handle_control(source, message)
            else:
                self.router.handle_control(source, message)
            return
        # Validate every header field in place — a bad header is "malformed"
        # even when its (source, seq) was heard before — and ask _seen
        # before anything is built: most flooded receptions are duplicates.
        known = self._addresses
        try:
            text = message["s"]
            origin, origin_text = known.get(text) or self._learn_address(text)
            text = message["d"]
            target, target_text = known.get(text) or self._learn_address(text)
            ttl, seq, body = message["t"], message["q"], message["b"]
            route = list(message["r"]) if "r" in message else None
        except (KeyError, TypeError, ValueError, AttributeError, MiddlewareError):
            self._drop("malformed")
            return
        if not isinstance(ttl, int) or not isinstance(seq, int) \
                or not isinstance(body, _BODY_TYPES):
            self._drop("malformed")
            return
        seqs = self._seen.get(origin_text)
        if seqs is None:
            self._seen[origin_text] = {seq}
        elif seq in seqs:
            self._drop("duplicate")
            return
        else:
            seqs.add(seq)
        envelope = Envelope(origin, target, ttl, seq, body, route)
        envelope.wire = self._capture_wire(
            payload, message, origin_text, target_text)
        if TRACER.enabled:
            # Continue the trace the frame's packet carried: the ambient
            # span here is the transport.deliver span parented on it.
            envelope.trace_ctx = TRACER.current_context()
        self._move(envelope)

    _ADDRESS_MEMO_CAP = 1024

    def _learn_address(self, text: str) -> Tuple[Address, str]:
        """Parse ``"node:port"`` once; remember it with its re-stringified form."""
        address = Address.parse(text)
        if len(self._addresses) >= self._ADDRESS_MEMO_CAP:
            self._addresses.clear()
        known = self._addresses[text] = (address, str(address))
        return known

    _WIRE_KEYS = ("s", "d", "t", "q", "b")
    _WIRE_KEYS_R = ("s", "d", "t", "q", "b", "r")

    def _capture_wire(self, payload, message: Dict[str, Any],
                      source: str, destination: str) -> Optional[WireFrame]:
        """The received frame, iff its dict provably round-trips to_dict().

        Forwarding via a cached frame is only sound when re-encoding
        ``envelope.to_dict()`` would reproduce the received dict exactly:
        canonical key order, addresses that re-stringify identically
        (``source``/``destination`` are the parsed addresses' ``str()``),
        and a non-negative 64-bit ttl whose varint ``derive_int`` can size.
        Anything else returns None, falling back to the full re-encode —
        exactly the pre-frame behavior (including its silent dropping of
        unknown keys).
        """
        keys = tuple(message)
        if keys != self._WIRE_KEYS and keys != self._WIRE_KEYS_R:
            return None
        ttl = message["t"]
        if type(ttl) is not int or type(message["q"]) is not int \
                or not 0 <= ttl < 2**63:
            return None
        if message["s"] != source or message["d"] != destination:
            return None
        if isinstance(payload, WireFrame) and payload.codec.name == self.codec.name:
            return payload
        return WireFrame(message, self.codec)

    def _drop(self, reason: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1
        if TRACER.enabled:
            TRACER.instant("route.drop", node=self.node_id, reason=reason)


class RoutedTransport(Transport):
    """A Transport whose unicasts traverse multiple hops via the agent."""

    def __init__(self, local: Address, agent: RoutingAgent):
        super().__init__(local, agent.scheduler)
        self._agent = agent
        self._text = str(local)

    def _send(self, destination: Address, payload: bytes) -> None:
        self._agent.originate(self._local, self._text, destination, payload)

    def broadcast(self, payload: bytes, port: Optional[str] = None) -> None:
        """One-hop broadcast (symmetric with SimTransport.broadcast)."""
        self.send(Address(BROADCAST_NODE, port or self._local.port), payload)

    def close(self) -> None:
        super().close()
        self._agent.close_port(self._local.port)


def build_routed_network(
    fabric: SimFabric,
    router_factory: Callable[[str], Router],
    node_ids: Optional[List[str]] = None,
    default_ttl: int = DEFAULT_TTL,
) -> Dict[str, RoutingAgent]:
    """Install a routing agent on every node; returns agents by node id."""
    ids = node_ids if node_ids is not None else fabric.network.node_ids()
    return {
        node_id: RoutingAgent(
            fabric, node_id, router_factory(node_id), default_ttl=default_ttl
        )
        for node_id in ids
    }
