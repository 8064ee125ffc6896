"""Wireline point-to-point links (Ethernet/ATM stand-ins).

Section 3.2 requires the middleware to bridge wireline and wireless
technologies; :class:`WiredLink` is the wireline half. A link connects
exactly two nodes, is full-duplex, and has bandwidth, propagation delay, and
an optional loss probability. Wireline endpoints typically use
:func:`repro.netsim.energy.mains_battery`, so no energy is charged here.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ConfigurationError
from repro.netsim.medium import WirelessMedium
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.util.rng import split_rng


class LinkProfile:
    """Parameters of one wireline technology."""

    __slots__ = ("name", "bandwidth_bps", "latency_s", "loss_probability")

    def __init__(self, name: str, bandwidth_bps: float, latency_s: float,
                 loss_probability: float = 0.0) -> None:
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.loss_probability = loss_probability
        if self.bandwidth_bps <= 0:
            raise ConfigurationError(f"bandwidth must be positive, got {self.bandwidth_bps!r}")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ConfigurationError(
                f"loss probability must be in [0, 1), got {self.loss_probability!r}"
            )


#: 10 Mbps Ethernet (the embedded-device networks the paper mentions).
ETHERNET_10M = LinkProfile(name="ethernet-10M", bandwidth_bps=10e6, latency_s=0.0005)

#: ATM backbone-class link.
ATM_155M = LinkProfile(name="atm-155M", bandwidth_bps=155e6, latency_s=0.002)


class WiredLink:
    """A full-duplex point-to-point link between two nodes."""

    def __init__(
        self,
        sim: Simulator,
        node_a: Node,
        node_b: Node,
        profile: LinkProfile = ETHERNET_10M,
        seed: int = 0,
    ):
        if node_a.node_id == node_b.node_id:
            raise ConfigurationError("a link must connect two distinct nodes")
        self.sim = sim
        self.node_a = node_a
        self.node_b = node_b
        self.profile = profile
        self._rng = split_rng(seed, f"link:{node_a.node_id}:{node_b.node_id}")
        self.transmissions = 0
        self.deliveries = self.drops_dead = self.drops_faulted = 0

    @property
    def endpoints(self) -> Tuple[str, str]:
        return (self.node_a.node_id, self.node_b.node_id)

    def connects(self, node_id: str) -> bool:
        return node_id in self.endpoints

    def other_end(self, node_id: str) -> Node:
        if node_id == self.node_a.node_id:
            return self.node_b
        if node_id == self.node_b.node_id:
            return self.node_a
        raise ConfigurationError(f"node {node_id!r} is not an endpoint of {self.endpoints}")

    def transmit(self, sender_id: str, packet: Packet) -> bool:
        """Send a packet to the other end; returns True if put on the wire."""
        sender = self.other_end(self.other_end(sender_id).node_id)  # validates sender
        if not sender.alive:
            return False
        receiver = self.other_end(sender_id)
        self.transmissions += 1
        if self._rng.random() < self.profile.loss_probability:
            return True
        delay = self.profile.latency_s + packet.size_bits / self.profile.bandwidth_bps
        self.sim.schedule(delay, self._deliver, (receiver,), packet, False)
        return True

    #: A frame on the wire is heard through the radio medium's one
    #: reception routine, as a batch of one off the air: a wire charges
    #: its receiver nothing, and has no fault hook.
    _deliver = WirelessMedium._deliver
    _delivery_fault = None
