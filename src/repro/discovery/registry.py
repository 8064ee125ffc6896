"""Centralized service registry (the SLP/Jini-style directory).

One node runs a :class:`RegistryServer`; every other node uses a
:class:`RegistryClient` over any transport. Registrations carry a lease
(Section 3.3's plug-and-play: a supplier that disappears stops renewing and
its advertisement ages out instead of going stale forever).

Protocol (codec-encoded dicts):

=============  =======================================================
``register``   desc + lease_s -> ``register_ack`` (granted lease)
``renew``      service_id + lease_s -> ``renew_ack`` (ok flag)
``unregister`` service_id -> ``unregister_ack``
``lookup``     query -> ``lookup_ack`` (list of matching descriptions)
=============  =======================================================
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.discovery.description import ServiceDescription
from repro.discovery.matching import Matcher, Query
from repro.errors import DiscoveryError
from repro.interop.frames import WireFrame
from repro.obs.tracing import NOOP_SPAN, TRACER
from repro.transport.base import Address, Transport
from repro.transport.endpoint import MessageEndpoint, list_of, optional
from repro.util.events import EventEmitter
from repro.util.promise import Promise

#: Default and maximum lease the server grants.
DEFAULT_LEASE_S = 30.0
MAX_LEASE_S = 300.0
#: How often the server drops registrations whose lease ran out.
SWEEP_INTERVAL_S = 1.0
#: How often a client request is retransmitted after its first timeout.
REQUEST_RETRIES = 2


def _clamp_lease(requested: Any) -> float:
    """The lease a server grants for the one asked for, and the most a
    client believes of a grant: the default for none, within the bounds —
    clamped before it is made a float, so an int beyond any float is just
    a long lease."""
    lease = requested if requested else DEFAULT_LEASE_S
    return float(max(0.1, min(lease, MAX_LEASE_S)))


class Registration:
    __slots__ = ("description", "expires_at")

    def __init__(self, description: ServiceDescription,
                 expires_at: float) -> None:
        self.description = description
        self.expires_at = expires_at


# A mirror peer's copy carries ``rid: None`` (see ``_replicate``).
_RID = optional((str, type(None)))
_LEASE = optional((int, float))


class RegistryServer(MessageEndpoint):
    """The directory process.

    Events (via :attr:`events`): ``"registered"``, ``"renewed"``,
    ``"unregistered"``, ``"expired"`` — each with the service description.
    """

    OPS = {
        "register": ({"desc": ServiceDescription.from_dict, "lease_s": _LEASE,
                      "rid": _RID}, "_handle_register"),
        "renew": ({"service_id": str, "lease_s": _LEASE, "rid": _RID},
                  "_handle_renew"),
        "unregister": ({"service_id": str, "rid": _RID}, "_handle_unregister"),
        "lookup": ({"query": Query.from_dict, "rid": _RID}, "_handle_lookup"),
    }

    def __init__(
        self,
        transport: Transport,
        peers: Optional[List[Address]] = None,
    ):
        super().__init__(transport)
        self.events = EventEmitter()
        self._registrations: Dict[str, Registration] = {}
        self._matcher = Matcher()
        self.peers = list(peers) if peers else []
        self.lookups_served = 0
        self.replications_sent = 0
        self._schedule_sweep()

    # ------------------------------------------------------------ inspection

    def registered_services(self) -> List[ServiceDescription]:
        return [r.description for r in self._registrations.values()]

    def __len__(self) -> int:
        return len(self._registrations)

    # ---------------------------------------------------------------- leases

    def _schedule_sweep(self) -> None:
        self.transport.scheduler.schedule(SWEEP_INTERVAL_S, self._sweep)

    def _sweep(self) -> None:
        if self.transport.closed:
            return
        now = self.transport.scheduler.now()
        expired = [
            service_id
            for service_id, registration in self._registrations.items()
            if registration.expires_at <= now
        ]
        for service_id in expired:
            registration = self._registrations.pop(service_id)
            self.events.emit("expired", registration.description)
        self._schedule_sweep()

    # -------------------------------------------------------------- protocol

    def _replicate(self, message: Dict[str, Any]) -> None:
        """Forward a mutation to mirror peers (Section 3.3's mirroring).

        Replicated copies carry ``sync=True`` so peers apply without
        re-forwarding and without answering (see :meth:`_ack`).
        """
        if not self.peers or message.get("sync"):
            return
        copy = WireFrame({**message, "sync": True, "rid": None}, self.codec)
        for peer in self.peers:
            self.replications_sent += 1
            self.transport.send(peer, copy)

    def _ack(self, source: Address, message: Dict[str, Any],
             **fields: Any) -> None:
        """A peer's ``sync`` copy is applied and not answered: the peer has
        no ``*_ack`` op in its table, so the frame would cross the network
        to be dropped."""
        if not message.get("sync"):
            super()._ack(source, message, **fields)

    def _handle_register(self, source: Address, message: Dict[str, Any],
                         description: ServiceDescription) -> None:
        lease = _clamp_lease(message.get("lease_s"))
        is_new = description.service_id not in self._registrations
        self._registrations[description.service_id] = Registration(
            description, self.transport.scheduler.now() + lease
        )
        self._replicate(message)
        self.events.emit("registered" if is_new else "renewed", description)
        self._ack(source, message, service_id=description.service_id,
                  lease_s=lease)

    def _handle_renew(self, source: Address, message: Dict[str, Any]) -> None:
        service_id = message["service_id"]
        registration = self._registrations.get(service_id)
        ok = registration is not None
        if registration is not None:
            lease = _clamp_lease(message.get("lease_s"))
            registration.expires_at = self.transport.scheduler.now() + lease
            # Copied as the registration it renews: a peer that lost the
            # register copy cannot renew what it never held.
            self._replicate({**message, "op": "register", "lease_s": lease,
                             "desc": registration.description.to_dict()})
            self.events.emit("renewed", registration.description)
        self._ack(source, message, ok=ok)

    def _handle_unregister(self, source: Address, message: Dict[str, Any]) -> None:
        registration = self._registrations.pop(message["service_id"], None)
        if registration is not None:
            self._replicate(message)
            self.events.emit("unregistered", registration.description)
        self._ack(source, message, removed=registration is not None)

    def _handle_lookup(self, source: Address, message: Dict[str, Any],
                       query: Query) -> None:
        matches = self._matcher.match(self.registered_services(), query)
        self.lookups_served += 1
        self._ack(source, message,
                  results=[m.description.to_dict() for m in matches])


class RegistryClient(MessageEndpoint):
    """A node's handle onto the central registry."""

    OPS = {
        "register_ack": ({"rid": str, "lease_s": _LEASE}, "_on_reply"),
        "renew_ack": ({"rid": str}, "_on_reply"),
        "unregister_ack": ({"rid": str}, "_on_reply"),
        # A lookup settles with the parsed descriptions.
        "lookup_ack": ({"rid": str, "results": list_of(
            ServiceDescription.from_dict)}, "_on_reply"),
    }

    def __init__(
        self,
        transport: Transport,
        registry_address: Address,
        request_timeout_s: float = 2.0,
    ):
        super().__init__(transport, rids="reg")
        self.registry_address = registry_address
        self.request_timeout_s = request_timeout_s
        self._auto_renew: Dict[str, float] = {}  # service_id -> lease_s

    # --------------------------------------------------------------- sending

    def _ask(self, message: Dict[str, Any]) -> Promise:
        # Retransmitted on timeout because the transport below may be lossy;
        # server operations are idempotent, so duplicates are harmless.
        return self._request(self.registry_address, message,
                             self.request_timeout_s, DiscoveryError,
                             REQUEST_RETRIES)

    # ------------------------------------------------------------ operations

    def register(
        self,
        description: ServiceDescription,
        lease_s: float = DEFAULT_LEASE_S,
        auto_renew: bool = True,
    ) -> Promise:
        """Register a service; with ``auto_renew`` the lease is kept alive
        until :meth:`unregister` is called. Fulfills with the granted lease."""
        promise = self._ask(
            {"op": "register", "desc": description.to_dict(), "lease_s": lease_s}
        )

        def arm_renewal(settled: Promise) -> None:
            if settled.rejected or not auto_renew:
                return
            granted = _clamp_lease(settled.result().get("lease_s", lease_s))
            self._auto_renew[description.service_id] = granted
            self._schedule_renew(description.service_id, granted)

        promise.on_settle(arm_renewal)
        return promise

    def _schedule_renew(self, service_id: str, lease_s: float) -> None:
        self.transport.scheduler.schedule(
            lease_s * 0.5, self._renew_if_active, service_id
        )

    def _renew_if_active(self, service_id: str) -> None:
        lease_s = self._auto_renew.get(service_id)
        if lease_s is None or self.transport.closed:
            return
        self._ask({"op": "renew", "service_id": service_id, "lease_s": lease_s})
        self._schedule_renew(service_id, lease_s)

    def unregister(self, service_id: str) -> Promise:
        self._auto_renew.pop(service_id, None)
        return self._ask({"op": "unregister", "service_id": service_id})

    def lookup(self, query: Query) -> Promise:
        """Find services; fulfills with a list of :class:`ServiceDescription`.

        The server filters hard constraints; the client re-ranks locally
        with the full consumer QoS (including its spatial and power terms).
        """
        span: Any = NOOP_SPAN
        if TRACER.enabled:
            span = TRACER.span(
                "discovery.lookup",
                node=self.transport.local_address.node,
                service_type=query.service_type,
            )
        with TRACER.activate(span):
            promise = self._ask({"op": "lookup", "query": query.to_dict()})
        results: Promise = Promise()

        def unpack(settled: Promise) -> None:
            if settled.rejected:
                span.set_label(outcome="failed")
                span.finish()
                results.reject(settled.error())  # type: ignore[arg-type]
                return
            ranked = Matcher().match(settled.result(), query)
            span.set_label(outcome="ok", matches=len(ranked))
            span.finish()
            results.fulfill([m.description for m in ranked])

        promise.on_settle(unpack)
        return results
