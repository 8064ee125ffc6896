"""The top-level middleware facade: one node, one object.

Section 3.1's model — every networked node is a service supplier, a service
consumer, or both — becomes :class:`MiddlewareNode`: a container that wires
transport, discovery, QoS matching, RPC, and the transaction manager behind
a supplier API (:meth:`MiddlewareNode.provide`) and a consumer API
(:meth:`MiddlewareNode.find` / :meth:`MiddlewareNode.establish` /
:meth:`MiddlewareNode.call`).

Discovery mode is chosen at construction: give a registry address for
centralized, nothing for fully distributed flooding, or both plus probes
for adaptive. Pass a router factory to run every unicast over the
middleware routing layer (multi-hop, Section 3.5).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.discovery.adaptive import AdaptiveDiscovery
from repro.discovery.description import ServiceDescription
from repro.discovery.distributed import DistributedDiscovery
from repro.discovery.matching import Query
from repro.discovery.registry import RegistryClient
from repro.errors import ConfigurationError
from repro.qos.spec import SupplierQoS
from repro.routing.base import Router, RoutingAgent
from repro.transactions.manager import TransactionManager
from repro.transactions.rpc import RpcEndpoint
from repro.transactions.transaction import (
    DataCallback,
    Transaction,
    TransactionKind,
    TransactionSpec,
)
from repro.transport.base import Address, Transport
from repro.transport.simnet import SimFabric
from repro.util.events import EventEmitter
from repro.util.promise import Promise

#: Port carrying this node's exposed services.
SERVICE_PORT = "svc"
#: Port used by the discovery subsystem.
DISCOVERY_PORT = "disc"


class MiddlewareNode:
    """One node's complete middleware stack."""

    def __init__(
        self,
        fabric: SimFabric,
        node_id: str,
        registry: Optional[Address] = None,
        adaptive: bool = False,
        router_factory: Optional[Callable[[str], Router]] = None,
        discovery_ttl: int = 4,
        collect_window_s: float = 1.0,
    ):
        self.fabric = fabric
        self.node_id = node_id
        self.events = EventEmitter()

        # --- transport (optionally multi-hop via the routing layer) --------
        self.routing_agent: Optional[RoutingAgent] = None
        if router_factory is not None:
            self.routing_agent = RoutingAgent(fabric, node_id, router_factory(node_id))
            service_transport: Transport = self.routing_agent.open_port(SERVICE_PORT)
            discovery_transport = self.routing_agent.open_port(DISCOVERY_PORT)
        else:
            service_transport = fabric.endpoint(node_id, SERVICE_PORT)
            discovery_transport = fabric.endpoint(node_id, DISCOVERY_PORT)

        # --- discovery ------------------------------------------------------
        self._distributed: Optional[DistributedDiscovery] = None
        self._registry_client: Optional[RegistryClient] = None
        if adaptive:
            if registry is None:
                raise ConfigurationError("adaptive discovery needs a registry address")
            self._distributed = DistributedDiscovery(
                discovery_transport, ttl=discovery_ttl,
                collect_window_s=collect_window_s,
            )
            registry_transport = (
                self.routing_agent.open_port("reg")
                if self.routing_agent is not None
                else fabric.endpoint(node_id, "reg")
            )
            self._registry_client = RegistryClient(registry_transport, registry)
            network = fabric.network
            self.discovery: Any = AdaptiveDiscovery(
                self._distributed,
                self._registry_client,
                density_probe=lambda: len(network.neighbors(node_id)),
            )
        elif registry is not None:
            self._registry_client = RegistryClient(discovery_transport, registry)
            self.discovery = self._registry_client
        else:
            self._distributed = DistributedDiscovery(
                discovery_transport, ttl=discovery_ttl,
                collect_window_s=collect_window_s,
            )
            self.discovery = self._distributed

        # --- interaction ------------------------------------------------------
        self.rpc = RpcEndpoint(service_transport)
        self.transactions = TransactionManager(self.rpc, self.discovery)
        self._provided: Dict[str, ServiceDescription] = {}

    # ------------------------------------------------------------- supplier

    @property
    def service_address(self) -> str:
        return f"{self.node_id}:{SERVICE_PORT}"

    def provide(
        self,
        service_id: str,
        service_type: str,
        handlers: Mapping[str, Callable[..., Any]],
        attributes: Optional[Dict[str, str]] = None,
        qos: SupplierQoS = SupplierQoS(),
        position: Optional[Tuple[float, float]] = None,
        lease_s: float = 30.0,
    ) -> ServiceDescription:
        """Expose handlers and advertise the service (supplier role)."""
        for method, handler in handlers.items():
            self.rpc.expose(method, handler)
        if position is None and self.node_id in self.fabric.network:
            node_position = self.fabric.network.node(self.node_id).position
            position = (node_position.x, node_position.y)
        description = ServiceDescription(
            service_id=service_id,
            service_type=service_type,
            provider=self.service_address,
            attributes=dict(attributes or {}),
            qos=qos,
            position=position,
        )
        self._provided[service_id] = description
        if isinstance(self.discovery, RegistryClient):
            self.discovery.register(description, lease_s=lease_s)
        else:
            self.discovery.advertise(description)
        self.events.emit("provided", description)
        return description

    def withdraw(self, service_id: str) -> None:
        self._provided.pop(service_id, None)
        if isinstance(self.discovery, RegistryClient):
            self.discovery.unregister(service_id)
        else:
            self.discovery.withdraw(service_id)

    # ------------------------------------------------------------- consumer

    def find(self, query: Query) -> Promise:
        """Discover services (consumer role); fulfills with descriptions."""
        return self.discovery.lookup(query)

    def call(
        self,
        provider: str,
        method: str,
        params: Optional[Mapping[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> Promise:
        """Direct RPC to a provider address string ("node:port")."""
        return self.rpc.call(Address.parse(provider), method, params, timeout_s)

    def establish(
        self,
        query: Query,
        spec: Optional[TransactionSpec] = None,
        on_data: Optional[DataCallback] = None,
    ) -> Promise:
        """Discovery-matched, QoS-contracted transaction (Section 3.6)."""
        if spec is None:
            spec = TransactionSpec(TransactionKind.ON_DEMAND)
        return self.transactions.establish(query, spec, on_data)

    def stop_transaction(self, transaction: Transaction) -> None:
        self.transactions.stop(transaction)

    # -------------------------------------------------------------- plumbing

    def close(self) -> None:
        self.rpc.transport.close()
        if self._distributed is not None:
            self._distributed.close()
