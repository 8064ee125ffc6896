"""In-memory transport fabric.

A :class:`InMemoryFabric` is a star network living entirely in one process,
with virtual time from a private :class:`Simulator`. It supports
configurable latency and loss, so the reliability layer can be exercised
without the full network simulator.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.netsim.simulator import Simulator
from repro.obs.tracing import TRACER, Span
from repro.transport.base import Address, Transport
from repro.util.rng import split_rng


class InMemoryFabric:
    """Connects in-memory endpoints by node name.

    Messages are delivered after ``latency_s`` of virtual time and dropped
    with probability ``loss_probability`` (seeded). Unknown destinations are
    silently dropped, like a network.

    Payloads travel by reference: lazy wire frames cross the fabric without
    their bytes ever being materialized (see :mod:`repro.interop.frames`).
    """

    def __init__(
        self,
        latency_s: float = 0.0,
        loss_probability: float = 0.0,
        seed: int = 0,
    ):
        if not 0.0 <= loss_probability < 1.0:
            raise ConfigurationError(
                f"loss probability must be in [0, 1), got {loss_probability!r}"
            )
        self.sim = Simulator()
        self.latency_s = latency_s
        self.loss_probability = loss_probability
        self._rng = split_rng(seed, "inmemory-fabric")
        self._endpoints: Dict[Address, "InMemoryTransport"] = {}
        self.messages_dropped = 0

    def endpoint(self, node: str, port: str = "default") -> "InMemoryTransport":
        """Create (and register) an endpoint for ``node:port``."""
        address = Address(node, port)
        if address in self._endpoints:
            raise ConfigurationError(f"endpoint {address} already exists")
        transport = InMemoryTransport(address, self)
        self._endpoints[address] = transport
        return transport

    def remove(self, address: Address) -> None:
        self._endpoints.pop(address, None)

    def _transmit(self, source: Address, destination: Address, payload: bytes) -> None:
        ctx = TRACER.current_context() if TRACER.enabled else None
        if self.loss_probability and self._rng.random() < self.loss_probability:
            self.messages_dropped += 1
            if ctx is not None:
                TRACER.instant("transport.loss", parent=ctx,
                               node=source.node, peer=destination.node)
            return
        self.sim.schedule(self.latency_s, self._deliver,
                          source, destination, payload, ctx)

    def _deliver(self, source: Address, destination: Address, payload: bytes,
                 ctx: Optional[Span] = None) -> None:
        endpoint = self._endpoints.get(destination)
        if endpoint is None or endpoint.closed:
            self.messages_dropped += 1
            return
        if TRACER.enabled:
            with TRACER.span("transport.deliver", parent=ctx,
                             node=destination.node, port=destination.port,
                             peer=source.node):
                endpoint._dispatch(source, payload)
        else:
            endpoint._dispatch(source, payload)

    def run(self) -> None:
        """Pump all pending virtual-time events (convenience for tests)."""
        self.sim.run()


class InMemoryTransport(Transport):
    """An endpoint on an :class:`InMemoryFabric`."""

    def __init__(self, local: Address, fabric: InMemoryFabric):
        super().__init__(local, fabric.sim)
        self._fabric = fabric

    def _send(self, destination: Address, payload: bytes) -> None:
        self._fabric._transmit(self._local, destination, payload)

    def close(self) -> None:
        super().close()
        self._fabric.remove(self._local)
