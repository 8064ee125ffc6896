"""Energy-aware routing.

Section 4: "In multi-hop networks, routing can be an important source of
network energy management; therefore ... the middleware incorporates this
functionality. ... the goal of MiLAN is to increase the lifetime of a
network by incorporating low level network functionality."

This router is that functionality: a link-state router whose edge weight
combines the radio transmission cost of the hop with a penalty that grows as
the *forwarding* node's battery drains::

    weight(u, v) = tx_cost(u -> v) / max(residual_fraction(u), floor)**alpha

With ``alpha = 0`` this degenerates to minimum-transmission-energy routing;
larger ``alpha`` shifts load away from tired nodes, trading path energy for
network lifetime — the tradeoff experiment E5 sweeps.
"""

from __future__ import annotations

from repro.netsim.network import Network
from repro.netsim.packet import HEADER_BYTES
from repro.routing.linkstate import LinkStateRouter

#: Nodes below this residual fraction are penalized as if at the floor,
#: avoiding division blow-ups while keeping them maximally unattractive.
RESIDUAL_FLOOR = 0.01

#: Nominal packet size used to compare link costs (bits).
NOMINAL_PACKET_BITS = (64 + HEADER_BYTES) * 8


class EnergyAwareRouter(LinkStateRouter):
    """Link-state routing with residual-energy-weighted edges; ``alpha``
    controls how strongly low-residual nodes are avoided."""

    def __init__(
        self,
        network: Network,
        node_id: str,
        alpha: float = 2.0,
        refresh_interval_s: float = 1.0,
    ):
        super().__init__(network, node_id, refresh_interval_s=refresh_interval_s)
        self.alpha = alpha

    def _weight(self, u: str, v: str) -> float:
        sender = self.network.node(u)
        distance = sender.distance_to(self.network.node(v))
        tx_cost = sender.radio.tx_cost(NOMINAL_PACKET_BITS, distance)
        residual = max(sender.battery.fraction_remaining, RESIDUAL_FLOOR)
        return tx_cost / residual**self.alpha
