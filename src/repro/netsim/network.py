"""The Network container: simulator + nodes + medium + links in one object.

This is the object experiments construct. It owns a :class:`Simulator`, one
wireless medium, and any number of wireline links, and answers topology
queries (neighbors, connectivity) that routing and discovery layers need.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set

from repro.errors import ConfigurationError
from repro.netsim.energy import Battery, RadioEnergyModel
from repro.netsim.link import LinkProfile, WiredLink, ETHERNET_10M
from repro.netsim.medium import RadioProfile, WirelessMedium, WIFI_80211
from repro.netsim.mobility import MobilityModel
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.util.geometry import Point


class Network:
    """A simulated network of nodes over one radio technology plus wires."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        radio_profile: RadioProfile = WIFI_80211,
        seed: int = 0,
    ):
        self.sim = sim if sim is not None else Simulator()
        self.seed = seed
        self.medium = WirelessMedium(self.sim, radio_profile, seed=seed)
        self.links: List[WiredLink] = []
        self._nodes: Dict[str, Node] = {}
        self._link_seq = 0

    # ------------------------------------------------------------- building

    def add_node(
        self,
        node_id: str,
        position: Point = Point(0.0, 0.0),
        battery: Optional[Battery] = None,
        radio: Optional[RadioEnergyModel] = None,
        mobility: Optional[MobilityModel] = None,
    ) -> Node:
        if node_id in self._nodes:
            raise ConfigurationError(f"node id {node_id!r} already exists")
        node = Node(
            node_id, self.sim, position=position, battery=battery,
            radio=radio, mobility=mobility,
        )
        self._nodes[node_id] = node
        self.medium.attach(node)
        return node

    def add_link(
        self, a: str, b: str, profile: LinkProfile = ETHERNET_10M
    ) -> WiredLink:
        link = WiredLink(
            self.sim, self.node(a), self.node(b), profile,
            seed=self.seed + self._link_seq,
        )
        self._link_seq += 1
        self.links.append(link)
        return link

    # -------------------------------------------------------------- lookup

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ConfigurationError(f"unknown node {node_id!r}") from None

    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    def node_ids(self) -> List[str]:
        return list(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------- topology

    def wired_peers(self, node_id: str) -> List[Node]:
        return [
            link.other_end(node_id)
            for link in self.links
            if link.connects(node_id) and link.other_end(node_id).alive
        ]

    def neighbors(self, node_id: str) -> List[Node]:
        """Alive one-hop neighbors over radio or wire, deduplicated."""
        radio_peers = self.medium.neighbors_of(node_id)
        if not self.links:  # all-wireless deployments skip the merge dict
            return radio_peers
        seen: Dict[str, Node] = {}
        for peer in radio_peers:
            seen[peer.node_id] = peer
        for peer in self.wired_peers(node_id):
            seen[peer.node_id] = peer
        return list(seen.values())

    def adjacency(self, only_alive: bool = True) -> Dict[str, Set[str]]:
        """Snapshot of the current connectivity graph."""
        graph: Dict[str, Set[str]] = {}
        for node_id, node in self._nodes.items():
            if only_alive and not node.alive:
                continue
            graph[node_id] = {
                peer.node_id
                for peer in self.neighbors(node_id)
                if not only_alive or peer.alive
            }
        return graph

    def reachable_from(self, origin: str) -> Set[str]:
        """BFS over the current connectivity graph."""
        graph = self.adjacency()
        if origin not in graph:
            return set()
        seen = {origin}
        frontier = deque([origin])
        while frontier:
            current = frontier.popleft()
            for neighbor in graph.get(current, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen

    # --------------------------------------------------------------- sending

    def send(self, sender_id: str, packet: Packet) -> bool:
        """Transmit a packet from ``sender_id`` one hop.

        Unicast prefers a direct wired link to the destination when one is
        up; otherwise the wireless medium is used. Broadcast goes over the
        air and down every wired link.

        ``False`` for a dead sender, :class:`ConfigurationError` for one the
        network does not know. With no wired links the medium gives the
        verdict, so there a sender detached from it raises "not attached"
        even when dead (with links, a dead one returns ``False`` first).
        """
        if not self.links:  # the medium checks "attached" and "alive" itself
            if sender_id not in self._nodes:
                raise ConfigurationError(f"unknown node {sender_id!r}")
            return self.medium.transmit(sender_id, packet)
        sender = self.node(sender_id)
        if not sender.alive:
            return False
        if packet.is_broadcast:
            any_sent = self.medium.transmit(sender_id, packet)
            for link in self.links:
                if link.connects(sender_id):
                    any_sent = link.transmit(sender_id, packet) or any_sent
            return any_sent
        for link in self.links:
            if (
                link.connects(sender_id)
                and link.other_end(sender_id).node_id == packet.destination
            ):
                return link.transmit(sender_id, packet)
        return self.medium.transmit(sender_id, packet)

    # --------------------------------------------------------------- metrics

    def total_energy_remaining(self) -> float:
        """Sum of finite battery charge across nodes (infinite ones excluded)."""
        return sum(
            node.battery.remaining
            for node in self._nodes.values()
            if node.battery.capacity != float("inf")
        )

    def first_dead_node(self) -> Optional[Node]:
        for node in self._nodes.values():
            if not node.alive:
                return node
        return None
