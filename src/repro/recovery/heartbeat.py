"""Heartbeat failure detection.

Every monitored peer sends periodic heartbeats; the detector suspects a
peer after ``timeout_multiplier`` missed intervals and unsuspects on the
next heartbeat. This is the standard eventually-perfect-detector
construction under partial synchrony — good enough to drive failover in
:mod:`repro.replication` and rebinding in the QoS degradation manager.

Wire format: ``{"op": "hb", "from": node, "seq": n}`` (fire-and-forget).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import ConfigurationError
from repro.interop.frames import WireFrame
from repro.transport.base import Address, Transport
from repro.transport.endpoint import MessageEndpoint
from repro.util.events import EventEmitter, Subscription


class PeerState:
    __slots__ = ("last_heard", "last_seq", "suspected")

    def __init__(self, last_heard: float, last_seq: int) -> None:
        self.last_heard = last_heard
        self.last_seq = last_seq
        self.suspected: bool = False


class HeartbeatDetector(MessageEndpoint):
    """Sends own heartbeats and watches peers' (both optional).

    Events (via :attr:`events`): ``"suspect"`` (peer node id),
    ``"alive"`` (peer node id) on recovery from suspicion.
    """

    OPS = {"hb": ({"from": str, "seq": int}, "_on_heartbeat")}

    def __init__(
        self,
        transport: Transport,
        interval_s: float = 1.0,
        timeout_multiplier: float = 3.0,
    ):
        if interval_s <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval_s!r}")
        if timeout_multiplier < 1.0:
            raise ConfigurationError(
                f"timeout multiplier must be >= 1, got {timeout_multiplier!r}"
            )
        super().__init__(transport)
        self.interval_s = interval_s
        self.timeout_s = interval_s * timeout_multiplier
        self.events = EventEmitter()
        self._targets: List[Address] = []
        self._watched: Dict[str, PeerState] = {}
        self._seq = 0
        self._beat_timer = transport.scheduler.schedule(interval_s, self._beat)
        self._check_timer = transport.scheduler.schedule(interval_s, self._check)

    # ----------------------------------------------------------- membership

    def send_to(self, peer: Address) -> None:
        """Start heartbeating toward a peer."""
        if peer not in self._targets:
            self._targets.append(peer)

    def watch(self, node_id: str) -> None:
        """Start monitoring heartbeats from a node."""
        if node_id not in self._watched:
            self._watched[node_id] = PeerState(
                last_heard=self.transport.scheduler.now(), last_seq=-1
            )

    # --------------------------------------------------------- subscriptions

    def on_suspect(self, callback) -> Subscription:
        """Invoke ``callback(node_id)`` when a watched peer becomes suspected.

        Fires exactly once per alive→suspected transition: the ``suspected``
        flag on :class:`PeerState` only flips on a state change, so a flapping
        peer produces alternating suspect/alive callbacks, never a storm of
        duplicate suspects.
        """
        return self.events.on("suspect", callback)

    # -------------------------------------------------------------- queries

    def suspected(self, node_id: str) -> bool:
        state = self._watched.get(node_id)
        return state.suspected if state is not None else False

    # -------------------------------------------------------------- plumbing

    def _beat(self) -> None:
        if self.transport.closed:
            return
        self._seq += 1
        frame = WireFrame(
            {"op": "hb", "from": self.transport.local_address.node,
             "seq": self._seq},
            self.codec,
        )
        for peer in self._targets:
            self.transport.send(peer, frame)
        self._beat_timer = self.transport.scheduler.schedule(self.interval_s, self._beat)

    def _check(self) -> None:
        if self.transport.closed:
            return
        now = self.transport.scheduler.now()
        for node_id, state in self._watched.items():
            if not state.suspected and now - state.last_heard > self.timeout_s:
                state.suspected = True
                self.events.emit("suspect", node_id)
        self._check_timer = self.transport.scheduler.schedule(self.interval_s, self._check)

    def _on_heartbeat(self, source: Address, message: Dict[str, Any]) -> None:
        node_id, seq = message["from"], message["seq"]
        state = self._watched.get(node_id)
        if state is None or seq <= state.last_seq:
            return  # not watched, or a stale or duplicated heartbeat
        state.last_seq = seq
        state.last_heard = self.transport.scheduler.now()
        if state.suspected:
            state.suspected = False
            self.events.emit("alive", node_id)

    def stop(self) -> None:
        self._beat_timer.cancel()
        self._check_timer.cancel()
