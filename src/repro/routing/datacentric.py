"""Data-centric (directed-diffusion-style) routing.

The sensor-network routing mode the paper's literature review points to
(data-centric routing, [81]): data is addressed by *name*, not by node. A
sink floods an **interest** for a name; each node remembers the neighbor the
interest arrived from with the fewest hops (its *gradient*); sources publish
named data which flows hop-by-hop down the gradients to every interested
sink. No node ever learns a topology — only "who asked me for this name".

Messages (own port, codec dicts)::

    interest: {"c": "interest", "n": name, "o": sink, "q": seq, "h": hops,
               "t": ttl}
    data:     {"c": "data", "n": name, "o": origin, "q": seq, "v": value}
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set

from repro.interop.frames import WireFrame
from repro.routing.base import heard_before
from repro.transport.base import Address
from repro.transport.endpoint import MessageEndpoint, present
from repro.transport.simnet import SimFabric, SimTransport
from repro.util.ids import SequenceGenerator

DIFFUSION_PORT = "diffusion"
DEFAULT_INTEREST_TTL = 16
#: How long a gradient lasts unless a refreshed interest renews it.
GRADIENT_LIFETIME_S = 30.0

DataCallback = Callable[[str, Any, str], None]  # (name, value, origin)


class Gradient:
    """Where to send data for one (name, sink) pair."""

    __slots__ = ("parent", "sink", "hops_to_sink", "expires_at")

    def __init__(self, parent: str, sink: str, hops_to_sink: int,
                 expires_at: float) -> None:
        self.parent = parent  # neighbor to forward toward the sink
        self.sink = sink
        self.hops_to_sink = hops_to_sink
        self.expires_at = expires_at


class DataCentricAgent(MessageEndpoint):
    """One node's diffusion engine: sink, source, and relay in one."""

    OP_FIELD = "c"
    OPS = {
        "interest": ({"n": str, "o": str, "q": int, "h": int, "t": int},
                     "_on_interest"),
        "data": ({"n": str, "o": str, "q": int, "v": present}, "_on_data"),
    }

    def __init__(
        self,
        fabric: SimFabric,
        node_id: str,
    ):
        self.endpoint: SimTransport = fabric.endpoint(node_id, DIFFUSION_PORT)
        super().__init__(self.endpoint)
        self.fabric = fabric
        self.node_id = node_id
        # name -> sink -> gradient
        self._gradients: Dict[str, Dict[str, Gradient]] = {}
        self._subscriptions: Dict[str, DataCallback] = {}
        self._seq = SequenceGenerator(1)
        # origin -> the seqs heard from it (own floods included), the shape
        # of RoutingAgent._seen; one table per message kind.
        self._seen_interests: Dict[str, Set[int]] = {}
        self._seen_data: Dict[str, Set[int]] = {}

    def _now(self) -> float:
        return self.endpoint.scheduler.now()

    # ------------------------------------------------------------------ sink

    def subscribe(
        self,
        name: str,
        callback: DataCallback,
        refresh_interval_s: Optional[float] = None,
        ttl: int = DEFAULT_INTEREST_TTL,
    ) -> None:
        """Express interest in named data; re-floods periodically if asked
        (gradients expire, so long-lived sinks should refresh)."""
        self._subscriptions[name] = callback
        self._flood_interest(name, ttl)
        if refresh_interval_s is not None:
            self.endpoint.scheduler.schedule(
                refresh_interval_s, self._refresh, name, refresh_interval_s, ttl
            )

    def _refresh(self, name: str, interval: float, ttl: int) -> None:
        if name not in self._subscriptions or self.endpoint.closed:
            return
        self._flood_interest(name, ttl)
        self.endpoint.scheduler.schedule(interval, self._refresh, name, interval, ttl)

    def _flood_interest(self, name: str, ttl: int) -> None:
        seq = self._seq.next()
        heard_before(self._seen_interests, self.node_id, seq)
        self.endpoint.broadcast(
            WireFrame(
                {"c": "interest", "n": name, "o": self.node_id, "q": seq,
                 "h": 0, "t": ttl},
                self.codec,
            )
        )

    # ---------------------------------------------------------------- source

    def publish(self, name: str, value: Any) -> int:
        """Send named data toward every interested sink.

        Returns the number of sinks it was forwarded toward (0 when no
        gradient exists — nobody asked, so nothing is transmitted; this
        silence is data-centric routing's energy win).
        """
        if name in self._subscriptions:
            self._subscriptions[name](name, value, self.node_id)
        seq = self._seq.next()
        heard_before(self._seen_data, self.node_id, seq)
        return self._forward_data(
            {"c": "data", "n": name, "o": self.node_id, "q": seq, "v": value}
        )

    def _forward_data(self, message: Dict[str, Any]) -> int:
        gradients = self._live_gradients(message["n"])
        parents = {g.parent for g in gradients.values() if g.parent != self.node_id}
        if not parents:
            return 0
        # One lazy frame for the whole fan-out: encoded at most once however
        # many gradients the data flows down.
        frame = WireFrame(message, self.codec)
        for parent in sorted(parents):
            self.endpoint.send(Address(parent, DIFFUSION_PORT), frame)
        return len(parents)

    def _live_gradients(self, name: str) -> Dict[str, Gradient]:
        by_sink = self._gradients.get(name, {})
        now = self._now()
        live = {sink: g for sink, g in by_sink.items() if g.expires_at > now}
        self._gradients[name] = live
        return live

    # -------------------------------------------------------------- receiving

    def _on_interest(self, source: Address, message: Dict[str, Any]) -> None:
        hops = message["h"] + 1
        name, sink = message["n"], message["o"]
        by_sink = self._gradients.setdefault(name, {})
        existing = by_sink.get(sink)
        expires = self._now() + GRADIENT_LIFETIME_S
        if existing is None or hops < existing.hops_to_sink:
            by_sink[sink] = Gradient(source.node, sink, hops, expires)
        elif hops == existing.hops_to_sink and source.node == existing.parent:
            existing.expires_at = expires
        if heard_before(self._seen_interests, sink, message["q"]):
            return
        ttl = message["t"] - 1
        if ttl >= 1:
            self.endpoint.broadcast(
                WireFrame({**message, "h": hops, "t": ttl}, self.codec)
            )

    def _on_data(self, source: Address, message: Dict[str, Any]) -> None:
        if heard_before(self._seen_data, message["o"], message["q"]):
            return
        name = message["n"]
        if name in self._subscriptions:
            self._subscriptions[name](name, message["v"], message["o"])
        self._forward_data(message)
