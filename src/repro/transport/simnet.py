"""Transport over the simulated network.

:class:`SimFabric` adapts a :class:`repro.netsim.network.Network` to the
transport abstraction: each simulated node gets a port dispatcher, and each
``(node, port)`` pair gets a :class:`SimTransport` endpoint.

Delivery is **single-hop**: a unicast reaches its destination only if the
radio/wire does. Multi-hop delivery is middleware functionality — exactly
the position the paper takes in Section 3.5 — and is provided by
:class:`repro.routing.base.RoutedTransport` on top of this one.

The special node name ``"*"`` broadcasts to all radio neighbors; receivers
see the true source address.

Payloads ride inside :class:`~repro.netsim.packet.Packet` objects by
reference, and ``payload_bytes`` is computed with ``len(payload)`` — which a
lazy :class:`~repro.interop.frames.WireFrame` answers without materializing
— so serialization-delay and energy accounting are identical whether a
payload is eager bytes or a frame.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.errors import ConfigurationError
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.netsim.packet import BROADCAST, Packet
from repro.netsim.simulator import Simulator
from repro.obs.tracing import TRACER
from repro.transport.base import Address, Scheduler, Transport

#: Accounted overhead for the port-demux header (bytes).
PORT_HEADER_BYTES = 4

#: Broadcast node name at the transport level.
BROADCAST_NODE = BROADCAST


class SimScheduler:
    """A :class:`Simulator` as a ``Scheduler``: a node-local view of its clock.

    :class:`SimFabric` hands out one per node. ``skew`` models a drifting
    local timer: a node with ``skew=1.1`` fires its relative timers 10% late
    (its timer hardware runs slow), one with ``skew=0.9`` fires 10% early.
    ``now()`` stays the shared virtual time — skew affects only where *new*
    timers land, which is what desynchronizes heartbeat/retransmit/
    advertisement periods between nodes under chaos. The fabric-wide
    :attr:`SimFabric.scheduler` is the simulator itself: nothing skews it.
    """

    def __init__(self, sim: Simulator):
        self._sim = sim
        self.skew = 1.0

    def now(self) -> float:
        return self._sim.now()

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Any:
        return self._sim.schedule(delay * self.skew, fn, *args)


class SimFabric:
    """Binds transport endpoints onto a simulated network."""

    def __init__(self, network: Network):
        self.network = network
        #: The fabric-wide scheduler: the simulator itself, never skewed.
        self.scheduler: Scheduler = network.sim
        self._node_schedulers: Dict[str, SimScheduler] = {}
        # (node_id, port) -> endpoint
        self._endpoints: Dict[Tuple[str, str], "SimTransport"] = {}
        self._dispatching_nodes: Dict[str, Node] = {}

    def scheduler_for(self, node_id: str) -> Scheduler:
        """The per-node scheduler (shares the fabric clock until skewed)."""
        scheduler = self._node_schedulers.get(node_id)
        if scheduler is None:
            scheduler = SimScheduler(self.network.sim)
            self._node_schedulers[node_id] = scheduler
        return scheduler

    def set_clock_skew(self, node_id: str, factor: float) -> None:
        """Stretch (``factor > 1``) or shrink (``< 1``) a node's timer delays.

        Applies to every endpoint of ``node_id`` already created or created
        later. ``factor=1.0`` restores nominal timing.
        """
        if factor <= 0:
            raise ConfigurationError(
                f"clock skew factor must be positive, got {factor!r}"
            )
        scheduler = self.scheduler_for(node_id)
        assert isinstance(scheduler, SimScheduler)
        scheduler.skew = factor

    def endpoint(self, node_id: str, port: str = "default") -> "SimTransport":
        """Create an endpoint for ``node_id:port`` on the simulated network."""
        transport = SimTransport(Address(node_id, port), self)
        self.bind(node_id, port, transport)
        return transport

    def bind(self, node_id: str, port: str, transport) -> None:
        """Register any Transport to receive ``node_id:port`` traffic.

        Used by the routing layer so one-hop frames (e.g. discovery
        broadcasts) reach ports that were opened through a routing agent.
        """
        key = (node_id, port)
        if key in self._endpoints:
            raise ConfigurationError(f"endpoint {node_id}:{port} already exists")
        node = self.network.node(node_id)
        if node_id not in self._dispatching_nodes:
            node.set_packet_handler(self._on_packet)
            self._dispatching_nodes[node_id] = node
        self._endpoints[key] = transport

    def remove(self, address: Address) -> None:
        self._endpoints.pop((address.node, address.port), None)

    def _transmit(self, source: Address, destination: Address, payload: bytes) -> None:
        packet = Packet(
            source=source.node,
            destination=(
                BROADCAST if destination.node == BROADCAST_NODE else destination.node
            ),
            # The sender's Address itself, shared by every receiver.
            payload=(source, destination.port, payload),
            payload_bytes=len(payload) + PORT_HEADER_BYTES,
            trace=TRACER.current_context() if TRACER.enabled else None,
        )
        self.network.send(source.node, packet)

    def inject(self, destination: Address, source: Address, payload: bytes) -> None:
        """Deliver bytes directly to a local endpoint, bypassing the radio.

        Used by the routing layer: when a multi-hop envelope reaches its
        final node, the routing agent hands the inner payload to the target
        port through this call.
        """
        endpoint = self._endpoints.get((destination.node, destination.port))
        if endpoint is None or endpoint.closed:
            return
        if TRACER.enabled:
            with TRACER.span(
                "transport.deliver",
                node=destination.node,
                port=destination.port,
                peer=source.node,
            ):
                endpoint._dispatch(source, payload)
        else:
            endpoint._dispatch(source, payload)

    def _on_packet(self, node: Node, packet: Packet) -> None:
        payload = packet.payload
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return  # not transport traffic (e.g. raw routing-layer frames)
        source, dest_port, data = payload
        endpoint = self._endpoints.get((node.node_id, dest_port))
        if endpoint is None or endpoint._closed:
            return
        if TRACER.enabled:
            with TRACER.span(
                "transport.deliver",
                parent=packet.trace,
                node=node.node_id,
                port=dest_port,
                peer=packet.source,
            ):
                endpoint._dispatch(source, data)
        else:
            endpoint._dispatch(source, data)

    def run(self) -> None:
        """Pump all pending simulator events (convenience for tests)."""
        self.network.sim.run()


class SimTransport(Transport):
    """An endpoint bound to one simulated node and port."""

    def __init__(self, local: Address, fabric: SimFabric):
        super().__init__(local, fabric.scheduler_for(local.node))
        self._fabric = fabric

    @property
    def node(self) -> Node:
        return self._fabric.network.node(self._local.node)

    def _send(self, destination: Address, payload: bytes) -> None:
        self._fabric._transmit(self._local, destination, payload)

    def broadcast(self, payload: bytes, port: str | None = None) -> None:
        """Broadcast to all radio neighbors on ``port`` (default: own port)."""
        self.send(Address(BROADCAST_NODE, port or self._local.port), payload)

    def close(self) -> None:
        super().close()
        self._fabric.remove(self._local)
