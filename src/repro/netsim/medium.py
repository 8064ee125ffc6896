"""The shared wireless medium.

Models what the middleware's energy/overhead experiments need and nothing
more: disk-model propagation (a technology-profile range), serialization
delay from the profile's bandwidth, a Bernoulli per-reception loss process,
and a bounded random contention delay standing in for MAC backoff. Energy is
charged to the sender (distance-dependent amplifier term) and every in-range
receiver (overhearing costs energy, which is exactly why MiLAN turns
components off).
"""

from __future__ import annotations

from itertools import islice
from math import hypot, inf
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.netsim.mobility import is_time_varying
from repro.netsim.node import Node
from repro.netsim.packet import BROADCAST, HEADER_BYTES, Packet
from repro.netsim.simulator import Simulator
from repro.netsim.spatialindex import PositionIndex
from repro.util.rng import split_rng

#: The neighbour memo's skin, as a fraction of the radio range: a static
#: origin remembers every mover within ``range * (1 + SKIN_FRACTION)``, and
#: that list stays a superset of the movers in range for as long as none
#: of them can have covered the skin (see ``WirelessMedium._audible_nodes``).
SKIN_FRACTION = 0.5

#: The share of the skin a memo entry's window lets the fastest mover cover.
_WINDOW_SHARE = 0.999

#: A delivery fault hook: ``(receiver_id, packet) -> packet or None``.
#: Returning ``None`` drops the reception; returning a (possibly mutated)
#: packet delivers it. Installed by the chaos layer to model corruption.
DeliveryFault = Callable[[str, Packet], Optional[Packet]]


class RadioProfile:
    """Parameters of one wireless technology.

    The stock profiles mirror the technologies named in Section 3.2 of the
    paper (Bluetooth, IEEE 802.11) at their era-appropriate data rates.
    """

    __slots__ = ("name", "bandwidth_bps", "range_m", "base_latency_s",
                 "loss_probability", "contention_window_s")

    def __init__(self, name: str, bandwidth_bps: float, range_m: float,
                 base_latency_s: float = 0.001, loss_probability: float = 0.0,
                 contention_window_s: float = 0.0) -> None:
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.range_m = range_m
        self.base_latency_s = base_latency_s
        self.loss_probability = loss_probability
        self.contention_window_s = contention_window_s
        if self.bandwidth_bps <= 0:
            raise ConfigurationError(f"bandwidth must be positive, got {self.bandwidth_bps!r}")
        if self.range_m <= 0:
            raise ConfigurationError(f"range must be positive, got {self.range_m!r}")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ConfigurationError(
                f"loss probability must be in [0, 1), got {self.loss_probability!r}"
            )

#: IEEE 802.11b-era profile.
WIFI_80211 = RadioProfile(
    name="802.11", bandwidth_bps=11e6, range_m=100.0, base_latency_s=0.001,
    loss_probability=0.01, contention_window_s=0.002,
)

#: Bluetooth 1.1-era profile (piconet-scale range and rate).
BLUETOOTH = RadioProfile(
    name="bluetooth", bandwidth_bps=723e3, range_m=10.0, base_latency_s=0.005,
    loss_probability=0.005, contention_window_s=0.001,
)

#: Idealized lossless short-range radio, for unit tests.
IDEAL_RADIO = RadioProfile(
    name="ideal", bandwidth_bps=1e9, range_m=1e6, base_latency_s=0.0001,
)


class WirelessMedium:
    """A broadcast domain shared by attached nodes.

    Determinism: the loss and contention processes draw from a stream derived
    from ``(seed, "medium:<profile name>")``, independent of any other
    randomness in the run.

    In-range queries go through one
    :class:`~repro.netsim.spatialindex.PositionIndex` with cell side equal
    to the radio range, so a broadcast inspects only the cells around the
    sender instead of scanning every attached node. Static nodes re-file
    only when they move (the node calls :meth:`_on_node_moved`);
    time-varying nodes are tested at their exact position at the moment of
    the query.

    Reception is one routine, :meth:`_deliver`'s loop, run by every path
    that ends in a node hearing a frame: a contention-free broadcast (one
    queue entry for all its surviving receivers), and a contended or
    tie-broken reception, a unicast or a frame on a ``WiredLink`` (each a
    batch of one). Per receiver, strictly in this order: crash check, rx
    charge (emptying the battery is a dead drop), delivery-fault hook,
    the node's receive counters, its handler. Receiver *k*'s handler
    returns before receiver *k+1* is tested for liveness, so a handler
    that crashes a later receiver of its own batch is seen by that
    receiver's check.

    Failure modeling hooks (all no-cost when unused):

    * **Isolation groups** (:meth:`isolate` / :meth:`heal`) — partitions as
      a reachability filter: two nodes can communicate iff they are on the
      same side of every active isolation group. Positions are untouched,
      so mobility models keep working and healing never teleports nodes.
    * **Degradation** (:attr:`extra_loss_probability`,
      :attr:`extra_latency_s`) — additive loss/latency for lossy bursts and
      slow-link periods.
    * **Delivery faults** (:meth:`set_delivery_fault`) — a per-reception
      hook that can corrupt, truncate, or swallow packets.
    """

    def __init__(
        self,
        sim: Simulator,
        profile: RadioProfile = WIFI_80211,
        seed: int = 0,
    ):
        self.sim = sim
        self.profile = profile
        self._nodes: Dict[str, Node] = {}
        self._rng = split_rng(seed, f"medium:{profile.name}")
        self._index = PositionIndex(profile.range_m)
        # Static origin id -> one flat tuple, (until, x, y, end, *statics,
        # *movers) with statics = entry[4:end], of node ids: see
        # _audible_nodes. Ids, floats and ints only, so the cyclic GC stops
        # tracking an entry at its first collection instead of promoting it
        # to the oldest generation. Liveness NOT applied. Cleared on attach,
        # detach and a move.
        self._static_neighbourhoods: Dict[str, tuple] = {}
        self._skin = profile.range_m * SKIN_FRACTION
        # Failure-modeling state (chaos layer; inert by default).
        self._isolations: Dict[int, frozenset] = {}
        self._next_isolation_token = 0
        self.extra_loss_probability = 0.0
        self.extra_latency_s = 0.0
        self._delivery_fault: Optional[DeliveryFault] = None
        # Counters for the overhead experiments.
        self.transmissions = 0
        self.deliveries = 0
        self.drops_out_of_range = 0
        self.drops_loss = 0
        self.drops_dead = 0
        self.drops_partitioned = 0
        self.drops_faulted = 0
        self.bytes_transmitted = 0

    # ----------------------------------------------------------- membership

    def attach(self, node: Node) -> None:
        """Add ``node``; it tells this medium of its moves until detached.
        A node is on one medium at a time."""
        if node.node_id in self._nodes:
            raise ConfigurationError(f"node {node.node_id!r} already attached")
        if node._medium is not None:
            raise ConfigurationError(
                f"node {node.node_id!r} is attached to another medium")
        self._nodes[node.node_id] = node
        self._index.insert(node)
        self._static_neighbourhoods.clear()
        node._medium = self

    def _on_node_moved(self, node: Node) -> None:
        """Invalidation hook, called by an attached node that was pinned or
        given a new mobility model."""
        self._index.note_moved(node)
        self._static_neighbourhoods.clear()

    # ------------------------------------------------------ failure modeling

    def isolate(self, group: Iterable[str]) -> int:
        """Partition ``group`` from the rest of the medium; returns a token.

        Reachability filter semantics: while the isolation is active, a
        frame crosses between a group member and a non-member in neither
        direction. Multiple isolations compose (two nodes talk iff they are
        on the same side of *every* active one). Node positions are not
        touched, so attached mobility models remain live.
        """
        token = self._next_isolation_token
        self._next_isolation_token += 1
        self._isolations[token] = frozenset(group)
        return token

    def heal(self, token: int) -> None:
        """Remove the isolation identified by ``token``; idempotent."""
        self._isolations.pop(token, None)

    def partitioned(self, a: str, b: str) -> bool:
        """True if any active isolation separates nodes ``a`` and ``b``."""
        for group in self._isolations.values():
            if (a in group) != (b in group):
                return True
        return False

    def set_delivery_fault(self, fault: Optional[DeliveryFault]) -> None:
        """Install (or clear, with ``None``) the per-reception fault hook."""
        self._delivery_fault = fault

    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    def neighbors_of(self, node_id: str) -> List[Node]:
        """Alive nodes currently within radio range of ``node_id``.

        Ordered by attachment, matching the pre-grid all-nodes scan. A
        static node's in-range set is answered from its neighbour memo (see
        :meth:`_audible_nodes`); a mobile node's from the position index.
        """
        origin = self._nodes.get(node_id)
        if origin is None:
            return []
        out = self._audible_nodes(origin)
        if self._isolations:
            out = [n for n in out if not self.partitioned(node_id, n.node_id)]
        return out

    def _audible_nodes(self, origin: Node) -> List[Node]:
        """Alive in-range nodes, ignoring partitions (physical audibility).

        The index returns candidates already in attachment order.

        Neighbour memo (a Verlet list): a *static* origin remembers its
        static in-range nodes, every time-varying node within
        ``range + skin`` with its place among them, and a deadline
        ``until = now + 0.999 * skin / v_max``, where ``v_max`` bounds the
        speed of every attached time-varying node
        (:func:`~repro.netsim.mobility.speed_bound`). A mover left out was
        more than ``range + skin`` away and cannot have crossed the skin
        before ``until``, so the index is asked once per origin per window,
        not once per frame. Each use range-checks the remembered movers
        with the index's own arithmetic and splices the ones in range in at
        their place. An ``inf`` bound turns the memo off; with no movers it
        never expires. Everything else that changes who is in range of whom
        goes through ``attach``, ``detach`` or a node's move, and
        each of those clears the memo. A mobile origin asks the index every
        time. Liveness is not remembered: crashes, recoveries and battery
        depletion fire no medium hook, so ``node.alive`` is applied at
        every use, as to a fresh answer.
        """
        now = self.sim.now()
        entry = self._static_neighbourhoods.get(origin.node_id)
        if entry is None or entry[0] < now:
            entry = self._remember(origin, now)
            if entry is None:
                position = origin.position
                return [
                    node for node in self._index.query_circle_ordered(
                        position.x, position.y, self.profile.range_m, now)
                    if node is not origin and not node._crashed
                    and node.battery.remaining > 0.0
                ]
        nodes = self._nodes
        end = entry[3]
        in_range = None
        if len(entry) > end:
            x, y = entry[1], entry[2]
            r2 = self.profile.range_m * self.profile.range_m
            spliced = 0
            fields = islice(entry, end, None)
            for at, node_id, params in zip(fields, fields, fields):
                if params is None:
                    position = nodes[node_id]._mobility.position_at(now)
                    dx = position.x - x
                    dy = position.y - y
                else:
                    # LinearMobility.position_at, operation for operation.
                    x0, y0, vx, vy, t0 = params
                    dt = now - t0
                    if dt < 0.0:
                        dt = 0.0
                    dx = x0 + vx * dt - x
                    dy = y0 + vy * dt - y
                if dx * dx + dy * dy <= r2:
                    if in_range is None:
                        in_range = list(islice(entry, 4, end))
                    in_range.insert(at + spliced, node_id)
                    spliced += 1
        # Node.alive, as its own expression: once per neighbour per frame.
        return [node for node in map(nodes.__getitem__, (
                    islice(entry, 4, end) if in_range is None else in_range))
                if not node._crashed and node.battery.remaining > 0.0]

    def _remember(self, origin: Node, now: float) -> Optional[tuple]:
        """Ask the index for ``origin``'s memo entry and store it.

        None, and nothing stored, for a mobile origin or while some
        attached node's speed has no bound.
        """
        if is_time_varying(origin._mobility):
            return None
        bound = self._index.speed_bound()
        if bound == inf:
            return None
        position = origin.position
        x, y = position.x, position.y
        statics, movers = self._index.query_neighbourhood(
            origin.node_id, x, y, self.profile.range_m,
            self.profile.range_m + self._skin, now)
        until = now + _WINDOW_SHARE * self._skin / bound if bound else inf
        entry = self._static_neighbourhoods[origin.node_id] = (
            until, x, y, 4 + len(statics), *statics, *movers)
        return entry

    # ----------------------------------------------------------- transmission

    def transmit(self, sender_id: str, packet: Packet) -> bool:
        """Put a packet on the air.

        Unicast packets are delivered to the destination if it is alive and
        in range; broadcast packets to every alive node in range. Returns
        True if the transmission was attempted (sender alive and powered) —
        *not* whether anything was received; the radio gives no such
        feedback, reliability is an upper-layer concern.
        """
        sender = self._nodes.get(sender_id)
        if sender is None:
            raise ConfigurationError(f"sender {sender_id!r} is not attached to the medium")
        # Node.alive, Packet.size_bytes / is_broadcast and the serialization
        # delay (bits over bandwidth), as their own expressions: once per
        # transmission.
        if sender._crashed or not sender.battery.remaining > 0.0:
            return False
        profile = self.profile

        self.transmissions += 1
        size_bytes = packet.payload_bytes + HEADER_BYTES
        self.bytes_transmitted += size_bytes
        size_bits = size_bytes * 8
        delay = (
            profile.base_latency_s
            + size_bits / profile.bandwidth_bps
            + self.extra_latency_s
        )

        if packet.destination == BROADCAST:
            receivers = self._audible_nodes(sender)
            if self._isolations:
                reachable = [
                    n for n in receivers
                    if not self.partitioned(sender_id, n.node_id)
                ]
                self.drops_partitioned += len(receivers) - len(reachable)
                receivers = reachable
            tx_distance = profile.range_m
        else:
            target = self._nodes.get(packet.destination)
            if target is None:
                self.drops_dead += 1
                receivers = []
                tx_distance = profile.range_m
            else:
                if sender._mobility is None and target._mobility is None:
                    # Two pinned nodes: the positions they hold.
                    here, there = sender._home_position, target._home_position
                else:
                    here, there = sender.position, target.position
                # Node.distance_to's hypot for the energy; the range test is
                # the index's squared compare, so unicast and broadcast
                # agree at the edge.
                dx = here.x - there.x
                dy = here.y - there.y
                tx_distance = hypot(dx, dy)
                if target._crashed or not target.battery.remaining > 0.0:
                    self.drops_dead += 1
                    receivers = []
                elif dx * dx + dy * dy > profile.range_m * profile.range_m:
                    self.drops_out_of_range += 1
                    receivers = []
                elif self._isolations and self.partitioned(
                    sender_id, target.node_id
                ):
                    self.drops_partitioned += 1
                    receivers = []
                else:
                    receivers = [target]

        # The sender pays for the transmission whether or not anyone hears it.
        still_powered = sender.charge_tx(size_bits, tx_distance)
        if not still_powered:
            # Battery died mid-transmission: the frame never completes.
            return True

        loss_probability = min(
            0.999999, profile.loss_probability + self.extra_loss_probability
        )
        rng = self._rng
        sim = self.sim
        contention = profile.contention_window_s
        deliver = self._deliver
        if contention > 0:
            # Per-receiver MAC backoff: every reception gets its own delay,
            # so each is necessarily its own queue event. Deliveries are
            # fire-and-forget (never cancelled), so the no-handle path.
            # rng.uniform(0, c) is 0 + (c - 0) * random(): the same float.
            draw = rng.random
            for receiver in receivers:
                per_rx_delay = delay + contention * draw()
                if draw() < loss_probability:
                    self.drops_loss += 1
                    continue
                sim.call_later(per_rx_delay, deliver, (receiver,), packet)
            return True
        # Contention-free profiles give every reception the identical delay:
        # fold the survivors into ONE queue entry. The loss process still
        # draws once per receiver in receiver order, so the RNG stream (and
        # therefore every seeded run) is identical to the unbatched path;
        # and batched receptions fire back-to-back in the same order the
        # individually scheduled events would have. Schedule exploration
        # (a same-time tie-breaker) needs to interleave individual
        # deliveries, so batching stands down while one is installed.
        survivors = []
        for receiver in receivers:
            if rng.random() < loss_probability:
                self.drops_loss += 1
            else:
                survivors.append(receiver)
        if len(survivors) > 1 and sim.tie_breaker_installed():
            for receiver in survivors:
                sim.call_later(delay, deliver, (receiver,), packet)
        elif survivors:
            sim.call_later(delay, deliver, survivors, packet)
        return True

    def _deliver(self, receivers: Sequence[Node], packet: Packet,
                 on_air: bool = True) -> None:
        """``receivers`` hear ``packet``, in order (contract: class docstring).

        Each receiver's radio is charged for the frame (a wire, with
        ``on_air`` False, charges nothing), in place unless the charge
        empties the battery: :meth:`Battery.drain` makes that one, and
        alone tells the node and the depletion callbacks. Frame size, the
        fault hook and each distinct radio's price are read once per
        batch; the counters are written back once, in a ``finally``: a
        reception whose handler raises was still made, and is counted.
        """
        heard, size = packet, packet.payload_bytes + HEADER_BYTES
        rx_bits = size * 8
        fault = self._delivery_fault
        radio = None
        dead = faulted = 0
        try:
            for receiver in receivers:
                if receiver._crashed:
                    dead += 1
                    continue
                if receiver.radio is not radio:
                    radio = receiver.radio
                    rx_joules = radio.rx_cost(rx_bits) if on_air else 0.0
                    # Inverted, so NaN is refused with the negatives.
                    if not rx_joules >= 0.0:
                        raise ConfigurationError(
                            f"cannot drain negative energy {rx_joules!r}")
                battery = receiver.battery
                remaining = battery.remaining
                if remaining > rx_joules:
                    battery.remaining = remaining - rx_joules
                else:
                    battery.drain(rx_joules)
                    dead += 1
                    continue
                if fault is not None:  # each receiver's own frame
                    heard = fault(receiver.node_id, packet)
                    if heard is None:
                        faulted += 1
                        continue
                    size = heard.size_bytes
                receiver.packets_received += 1
                receiver.bytes_received += size
                handler = receiver._handler
                if handler is not None:
                    handler(receiver, heard)
            made = len(receivers)
        except BaseException:
            # The reception that raised was made, the ones after it were
            # not (a node is in a batch once).
            made = receivers.index(receiver) + 1
            raise
        finally:
            self.drops_dead += dead
            self.drops_faulted += faulted
            self.deliveries += made - dead - faulted
