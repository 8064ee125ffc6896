"""On-demand source routing (DSR-style).

Unlike the link-state routers, this one builds no global state: a node
needing a route floods a route request (RREQ) that accumulates the path it
travels; the destination answers with a route reply (RREP) sent back along
the reversed path; the origin caches the route and source-routes data along
it. Intermediate nodes learn routes by forwarding RREPs.

Control messages (on the routing port)::

    RREQ: {"c": "rreq", "o": origin, "q": seq, "d": destination, "p": [path]}
    RREP: {"c": "rrep", "o": origin, "q": seq, "path": [full path]}

(origin, destination and path entries are node-id strings, seq an int). A
control frame that breaks these types, or an RREP whose path does not name
the receiving node, is dropped and counted as the agent's ``malformed``.

Envelopes queued while discovery runs are dropped (and counted) after
:data:`DISCOVERY_TIMEOUT_S` — the behaviour an unreachable destination
produces.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

from repro.obs.tracing import TRACER, Span
from repro.routing.base import Disposition, Envelope, Router, heard_before
from repro.transport.base import Address
from repro.util.ids import SequenceGenerator

#: Envelopes held per destination while its discovery runs; the oldest
#: goes first when a new one arrives at a full queue.
MAX_QUEUE = 64

#: How long a route discovery runs before its queued envelopes are dropped.
DISCOVERY_TIMEOUT_S = 2.0


class DsrRouter(Router):
    """Dynamic source routing with a route cache."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self._route_cache: Dict[str, List[str]] = {}
        self._rreq_seq = SequenceGenerator(1)
        # origin -> the rreq seqs heard from it (this node's own included),
        # the shape of RoutingAgent._seen.
        self._seen_rreqs: Dict[str, Set[int]] = {}
        self._waiting: Dict[str, List[Envelope]] = {}
        self._discovery_spans: Dict[str, Span] = {}
        self.rreqs_sent = 0
        self.rreps_sent = 0
        self.discovery_failures = 0
        self.route_errors = 0

    # ----------------------------------------------------------------- cache

    def learn_route(self, path: List[str]) -> None:
        """Cache this path and every prefix/suffix route it implies for us."""
        if self.node_id not in path:
            return
        index = path.index(self.node_id)
        # Forward routes to every node after us on the path.
        for j in range(index + 1, len(path)):
            self._route_cache[path[j]] = path[index:j + 1]
        # Reverse routes to every node before us (radio links are symmetric
        # in the disk model).
        for j in range(index):
            self._route_cache[path[j]] = list(reversed(path[j:index + 1]))

    def invalidate(self, destination: str) -> None:
        self._route_cache.pop(destination, None)

    def purge_hop(self, dead_hop: str) -> int:
        """Drop every cached route that travels through ``dead_hop``
        (DSR route maintenance on a route error)."""
        stale = [
            destination
            for destination, path in self._route_cache.items()
            if dead_hop in path
        ]
        for destination in stale:
            del self._route_cache[destination]
        return len(stale)

    # --------------------------------------------------------------- routing

    def route(self, envelope: Envelope) -> Disposition:
        destination = envelope.destination.node
        cached = self._route_cache.get(destination)
        if cached is not None:
            index = cached.index(self.node_id) if self.node_id in cached else -1
            if 0 <= index < len(cached) - 1:
                next_hop = cached[index + 1]
                if self.agent._hop_alive(next_hop):
                    envelope.route = cached
                    return ("forward", next_hop)
                # The link-layer ack would fail: repair before transmitting.
                self.route_errors += 1
                self.purge_hop(next_hop)
            else:
                self.invalidate(destination)
        envelope.route = None
        discovery_running = destination in self._waiting
        self._enqueue(destination, envelope)
        if not discovery_running:
            self._start_discovery(destination)
        return ("queued", None)

    def handle_broken_link(self, envelope: Envelope, next_hop: str) -> Disposition:
        """Route maintenance at an intermediate hop: purge routes through
        the dead node and salvage the envelope with a fresh discovery."""
        self.route_errors += 1
        self.purge_hop(next_hop)
        if TRACER.enabled:
            TRACER.instant("route.salvage", parent=envelope.trace_ctx,
                           node=self.node_id, dead_hop=next_hop,
                           dest=envelope.destination.node)
        return self.route(envelope)

    def _enqueue(self, destination: str, envelope: Envelope) -> None:
        queue = self._waiting.setdefault(destination, [])
        if len(queue) >= MAX_QUEUE:
            queue.pop(0)
        queue.append(envelope)

    def _start_discovery(self, destination: str) -> None:
        seq = self._rreq_seq.next()
        heard_before(self._seen_rreqs, self.node_id, seq)
        self.rreqs_sent += 1
        if TRACER.enabled:
            span = TRACER.span("route.discovery", node=self.node_id,
                               dest=destination, seq=seq)
            if isinstance(span, Span):
                self._discovery_spans[destination] = span
        self.agent.send_control(
            None,
            {"c": "rreq", "o": self.node_id, "q": seq, "d": destination,
             "p": [self.node_id]},
        )
        self.agent.scheduler.schedule(
            DISCOVERY_TIMEOUT_S, self._discovery_deadline, destination
        )

    def _discovery_deadline(self, destination: str) -> None:
        if destination in self._route_cache:
            return
        stranded = self._waiting.pop(destination, [])
        self.discovery_failures += len(stranded)
        span = self._discovery_spans.pop(destination, None)
        if span is not None:
            span.set_label(outcome="timeout", stranded=len(stranded))
            span.finish()

    # --------------------------------------------------------------- control

    def handle_control(self, source: Address, message: Dict[str, Any]) -> None:
        kind = message.get("c")
        if kind == "rreq":
            self._on_rreq(message)
        elif kind == "rrep":
            self._on_rrep(message)

    def _on_rreq(self, message: Dict[str, Any]) -> None:
        origin, seq = message.get("o"), message.get("q")
        destination, path = message.get("d"), message.get("p")
        if not (isinstance(origin, str) and isinstance(seq, int)
                and isinstance(destination, str) and _is_path(path)):
            self.agent._drop("malformed")
            return
        if heard_before(self._seen_rreqs, origin, seq) or self.node_id in path:
            return
        path = path + [self.node_id]
        if destination == self.node_id:
            # We are the target: answer along the reversed accumulated path.
            self.learn_route(path)
            self._send_rrep(origin, seq, path)
            return
        cached = self._route_cache.get(destination)
        if cached is not None and cached[0] == self.node_id:
            # Cache hit: splice our known route onto the accumulated path.
            full = path[:-1] + cached
            if len(set(full)) == len(full):  # no loops
                self._send_rrep(origin, seq, full)
                return
        self.agent.send_control(None, {**message, "p": path})

    def _send_rrep(self, origin: str, seq: int, path: List[str]) -> None:
        """Send (or forward) an RREP one hop back toward the origin."""
        index = path.index(self.node_id)
        if index == 0:
            return
        self.rreps_sent += 1
        self.agent.send_control(
            path[index - 1], {"c": "rrep", "o": origin, "q": seq, "path": path}
        )

    def _on_rrep(self, message: Dict[str, Any]) -> None:
        origin, seq, path = message.get("o"), message.get("q"), message.get("path")
        if not (isinstance(origin, str) and isinstance(seq, int)
                and _is_path(path) and self.node_id in path):
            self.agent._drop("malformed")
            return
        self.learn_route(path)
        if origin == self.node_id:
            self._flush(path[-1])
            return
        self._send_rrep(origin, seq, path)

    def _flush(self, destination: str) -> None:
        route = self._route_cache.get(destination)
        if route is None:
            return
        span = self._discovery_spans.pop(destination, None)
        if span is not None:
            span.set_label(outcome="found", hops=len(route) - 1)
            span.finish()
        for envelope in self._waiting.pop(destination, []):
            envelope.route = route
            if len(route) > 1:
                self.agent.forward_to(route[1], envelope)


def _is_path(path: Any) -> bool:
    """A control frame's node path: a list of node ids."""
    return isinstance(path, list) and all(isinstance(hop, str) for hop in path)
