"""Simulated nodes.

A node is a position, a battery, a radio, and a packet handler. It is the
single coupling point between the simulator and the middleware stack: the
transport layer installs a handler with :meth:`Node.set_packet_handler` and
sends via the medium/links it is attached to.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Optional, TYPE_CHECKING

from repro.netsim.energy import Battery, RadioEnergyModel
from repro.netsim.packet import Packet
from repro.util.events import EventEmitter
from repro.util.geometry import Point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.netsim.medium import WirelessMedium
    from repro.netsim.mobility import MobilityModel
    from repro.netsim.simulator import Simulator

PacketHandler = Callable[["Node", Packet], None]

#: The stock radio, shared by every node not given its own (the model is
#: frozen): the medium prices a frame once per distinct radio instance.
_DEFAULT_RADIO = RadioEnergyModel()


class Node:
    """A networked device in the simulation.

    Events emitted (via :attr:`events`):

    * ``"crashed"`` (node) — explicit failure injection.
    * ``"depleted"`` (node) — battery hit zero.
    * ``"recovered"`` (node) — restarted after a crash.
    * ``"moved"`` (node) — position pinned or mobility model swapped;
      the attached medium's spatial caches invalidate first.

    A node hears a frame in the one reception routine,
    ``WirelessMedium._deliver``, whichever medium or link carried it.

    A node allocates only what it uses — 10k–100k node worlds hold every
    node alive for the whole run. ``__slots__``, no dict; the emitter is
    built on the first read of :attr:`events` (until then there is no one
    to tell, and nothing is emitted); the battery reaches the node through
    its ``_node`` slot, and the medium it is attached to through
    ``_medium``, both without a closure or a subscription. Upper layers
    attach state via their own node-id-keyed maps, never via attributes on
    the node.
    """

    __slots__ = (
        "node_id", "sim", "battery", "radio", "_events", "_medium",
        "_home_position", "_mobility", "_crashed", "_handler",
        "packets_sent", "packets_received", "bytes_received",
    )

    def __init__(
        self,
        node_id: str,
        sim: "Simulator",
        position: Point = Point(0.0, 0.0),
        battery: Optional[Battery] = None,
        radio: Optional[RadioEnergyModel] = None,
        mobility: Optional["MobilityModel"] = None,
    ):
        self.node_id = node_id
        self.sim = sim
        if battery is None:
            battery = Battery(inf)
        self.battery = battery
        self.radio = radio if radio is not None else _DEFAULT_RADIO
        self._events: Optional[EventEmitter] = None
        #: The medium this node is attached to; it hears of moves directly.
        self._medium: Optional["WirelessMedium"] = None
        self._home_position = position
        self._mobility = mobility
        self._crashed = False
        self._handler: Optional[PacketHandler] = None
        self.packets_sent = 0
        self.packets_received = 0
        self.bytes_received = 0
        if battery._node is None:
            battery._node = self
        else:  # a battery shared with another node
            battery.on_depleted(self._battery_depleted)

    @property
    def events(self) -> EventEmitter:
        """The node's emitter, built on first access."""
        events = self._events
        if events is None:
            events = self._events = EventEmitter()
        return events

    def _emit(self, event: str) -> None:
        if self._events is not None:
            self._events.emit(event, self)

    def _battery_depleted(self) -> None:
        """Called once by the battery, on its first transition to empty."""
        self._emit("depleted")

    # ------------------------------------------------------------- liveness

    @property
    def alive(self) -> bool:
        """True unless the node crashed or its battery is flat."""
        # Read in place by ``WirelessMedium.transmit`` (sender and unicast
        # target: ``_crashed or not battery.remaining > 0.0``), by
        # ``WirelessMedium._audible_nodes`` (every neighbour) and by
        # ``WirelessMedium._deliver`` (``_crashed``, then the rx charge's
        # verdict): a change to what "alive" means changes those four too.
        return not self._crashed and self.battery.remaining > 0.0

    def crash(self) -> None:
        """Fail-stop the node (failure injection); idempotent."""
        if self._crashed:
            return
        self._crashed = True
        self._emit("crashed")

    def recover(self) -> None:
        """Restart a crashed node; volatile state above this layer is gone."""
        if not self._crashed:
            return
        self._crashed = False
        self._emit("recovered")

    # ------------------------------------------------------------- position

    @property
    def position(self) -> Point:
        """Current position; follows the mobility model if one is attached."""
        if self._mobility is None:
            return self._home_position
        return self._mobility.position_at(self.sim.now())

    @property
    def mobility(self) -> Optional["MobilityModel"]:
        """The attached mobility model, if any."""
        return self._mobility

    def set_mobility(self, mobility: "MobilityModel") -> None:
        self._mobility = mobility
        self._moved()

    def _moved(self) -> None:
        """Tell the medium, then the subscribers, of a new position or model."""
        if self._medium is not None:
            self._medium._on_node_moved(self)
        self._emit("moved")

    def distance_to(self, other: "Node") -> float:
        return self.position.distance_to(other.position)

    # ---------------------------------------------------------------- radio

    def set_packet_handler(self, handler: Optional[PacketHandler]) -> None:
        """Install the upper-layer receive callback (one per node)."""
        self._handler = handler

    def charge_tx(self, size_bits: int, distance: float) -> bool:
        """Account transmit energy; returns False if the battery died."""
        self.packets_sent += 1
        return self.battery.drain(self.radio.tx_cost(size_bits, distance))

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<Node {self.node_id} {state} at {self.position}>"
