"""Link-state shortest-path routing.

Models a *converged* link-state protocol: each agent computes Dijkstra over
the network's current connectivity graph, every edge one hop (a subclass
weighs edges by overriding :meth:`LinkStateRouter._weight`). The LSA control
traffic itself is abstracted away (we charge only data traffic), which is
the standard simplification when the quantity under study is data-path
behaviour — stated here so the experiment write-ups can cite it.

The adjacency snapshot is cached for ``refresh_interval_s`` of virtual time,
modeling the protocol's convergence delay: topology changes are invisible
until the next refresh.
"""

from __future__ import annotations

import heapq
from typing import Dict, Optional, Set, Tuple

from repro.netsim.network import Network
from repro.obs.tracing import TRACER
from repro.routing.base import Disposition, Envelope, Router


class LinkStateRouter(Router):
    """Dijkstra next-hop routing over a periodically refreshed topology."""

    def __init__(
        self,
        network: Network,
        node_id: str,
        refresh_interval_s: float = 1.0,
    ):
        self.network = network
        self.node_id = node_id
        self.refresh_interval_s = refresh_interval_s
        self._graph: Optional[Dict[str, Set[str]]] = None
        self._graph_time = -1.0
        self._next_hop_cache: Dict[str, Optional[str]] = {}

    # ------------------------------------------------------------- topology

    def _current_graph(self) -> Dict[str, Set[str]]:
        now = self.network.sim.now()
        if self._graph is None or now - self._graph_time >= self.refresh_interval_s:
            if TRACER.enabled:
                with TRACER.span("route.topology_refresh", node=self.node_id):
                    self._graph = self.network.adjacency()
            else:
                self._graph = self.network.adjacency()
            self._graph_time = now
            self._next_hop_cache.clear()
        return self._graph

    def _weight(self, u: str, v: str) -> float:
        """The cost of the edge ``u -> v``: one hop (shortest-hop routing)."""
        return 1.0

    def _compute_next_hop(self, destination: str) -> Optional[str]:
        """Dijkstra from self; returns the first hop toward ``destination``."""
        graph = self._current_graph()
        if self.node_id not in graph:
            return None
        # (cost, tiebreak node, node, first_hop)
        frontier: list[Tuple[float, str, str, Optional[str]]] = [
            (0.0, self.node_id, self.node_id, None)
        ]
        settled: Dict[str, Optional[str]] = {}
        while frontier:
            cost, _tiebreak, node, first_hop = heapq.heappop(frontier)
            if node in settled:
                continue
            settled[node] = first_hop
            if node == destination:
                return first_hop
            for neighbor in sorted(graph.get(node, ())):
                if neighbor in settled:
                    continue
                weight = self._weight(node, neighbor)
                heapq.heappush(
                    frontier,
                    (
                        cost + weight,
                        neighbor,
                        neighbor,
                        neighbor if first_hop is None else first_hop,
                    ),
                )
        return None

    def next_hop(self, destination: str) -> Optional[str]:
        # Refresh first: a stale snapshot must expire even when every
        # destination is already cached (the cache is cleared on refresh).
        self._current_graph()
        if destination not in self._next_hop_cache:
            self._next_hop_cache[destination] = self._compute_next_hop(destination)
        return self._next_hop_cache[destination]

    # -------------------------------------------------------------- routing

    def route(self, envelope: Envelope) -> Disposition:
        hop = self.next_hop(envelope.destination.node)
        if hop is None:
            return ("drop", "no-route")
        return ("forward", hop)
