"""The medium's one reception loop against a per-receiver reference.

``WirelessMedium._deliver`` hears a whole batch in one loop: the rx charge
is a subtraction in place unless it empties the battery, the fault hook,
counters and handler run in line. :func:`reference_receive` below is the
per-receiver routine that loop replaced, kept verbatim, and
:func:`reference_deliver` the batch loop that called it. Hypothesis draws
worlds and batches on which the two must leave the same state behind: the
same batteries (compared by ``repr``, so NaN and ``-0.0`` count), the same
depletion callbacks and handler calls in the same interleaving, the same
node and medium counters. CI's reception exactness fuzz runs the property
at 2000 examples, and ``repro.simtest.defects`` holds the mutants it must kill.
"""

from __future__ import annotations

from math import inf
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.netsim.energy import E_ELEC, Battery
from repro.netsim.link import WiredLink
from repro.netsim.medium import IDEAL_RADIO, DeliveryFault, WirelessMedium
from repro.netsim.node import Node
from repro.netsim.packet import BROADCAST, HEADER_BYTES, Packet
from repro.netsim.simulator import Simulator


def reference_receive(
    self,
    packet: Packet,
    size_bytes: int,
    rx_joules: float,
    fault: Optional[DeliveryFault] = None,
) -> Optional[bool]:
    """Hear one frame: the whole reception, called by the medium/link.

    The caller reads ``packet.size_bytes`` and prices ``rx_joules`` (what
    this node's radio charges for the frame) once per frame, not once
    per receiver. In order: liveness check, energy drain, post-drain
    liveness, the per-reception ``fault`` hook, the receive counters,
    then the upper-layer handler. Returns True if the packet was handed
    up, False if the node was (or went) dead — dead nodes silently drop
    traffic, as real ones do — and None if the fault hook swallowed it.
    """
    if self._crashed or not self.battery.drain(rx_joules):
        return False
    if fault is not None:
        packet = fault(self.node_id, packet)
        if packet is None:
            return None
        size_bytes = packet.size_bytes
    self.packets_received += 1
    self.bytes_received += size_bytes
    if self._handler is not None:
        self._handler(self, packet)
    return True


class PricedRadio:
    """A node's radio at a price of its own, in joules per received bit (a
    deployed radio charges :data:`E_ELEC`)."""

    def __init__(self, joules_per_bit: float):
        self.joules_per_bit = joules_per_bit

    def rx_cost(self, size_bits: int) -> float:
        return self.joules_per_bit * size_bits


def reference_deliver(medium, receivers, packet):
    """The medium's batch loop that called :func:`reference_receive` per
    receiver."""
    size_bytes = packet.payload_bytes + HEADER_BYTES
    size_bits = size_bytes * 8
    fault = medium._delivery_fault
    radio = None
    made = dead = faulted = 0
    try:
        for receiver in receivers:
            if receiver.radio is not radio:
                radio = receiver.radio
                rx_joules = radio.rx_cost(size_bits)
            made += 1
            heard = reference_receive(receiver, packet, size_bytes, rx_joules,
                                      fault)
            if not heard:
                if heard is None:
                    faulted += 1
                else:
                    dead += 1
    finally:
        medium.drops_dead += dead
        medium.drops_faulted += faulted
        medium.deliveries += made - dead - faulted


def reference_wire(receiver, packet):
    """What a :class:`WiredLink` did with the frame it carried."""
    if not receiver.alive:
        return
    reference_receive(receiver, packet, packet.size_bytes, 0.0)


#: What a node's battery holds, relative to what its radio charges for the
#: frame on the air: exactly one charge, exactly two, the smallest
#: positive float, mains, flat, or a drawn amount.
_BATTERIES = st.one_of(
    st.sampled_from(["once", "twice", "tiny", "mains", "flat", "shared"]),
    st.floats(min_value=0.0, max_value=1e-4))
#: A handler logs, is missing, raises, or crashes the drawn node.
_HANDLERS = st.one_of(st.sampled_from(["log", None, "raise"]),
                      st.integers(min_value=0, max_value=7))
#: A fault hook's answer for one receiver: pass, swallow, or a frame of
#: another size.
_FAULTS = st.one_of(st.sampled_from(["pass", "swallow"]),
                    st.integers(min_value=-8, max_value=40))


@st.composite
def _plans(draw):
    """A world of up to eight nodes on two radios, and the batches they
    hear: each an ordered subset of the nodes on the air, or its first
    member alone on a wire."""
    radios = draw(st.lists(
        st.sampled_from([0.0, 1e-9, E_ELEC, 1e-6, inf]),
        min_size=2, max_size=2))
    count = draw(st.integers(min_value=1, max_value=8))
    nodes = draw(st.lists(
        st.tuples(st.integers(0, 1), _BATTERIES, st.booleans(), _HANDLERS),
        min_size=count, max_size=count))
    faults = draw(st.none() | st.lists(_FAULTS, min_size=count,
                                       max_size=count))
    batches = draw(st.lists(st.tuples(
        st.lists(st.integers(0, count - 1), unique=True, max_size=count),
        st.booleans()), min_size=1, max_size=4))
    payload = draw(st.integers(min_value=0, max_value=64))
    return radios, nodes, faults, batches, payload


class _World:
    """The world a plan describes, with one log of everything observable."""

    def __init__(self, plan):
        radios, specs, faults, _batches, payload = plan
        sim = Simulator()
        self.medium = WirelessMedium(sim, IDEAL_RADIO)
        self.link = WiredLink(sim, Node("a", sim), Node("b", sim))
        self.log = []
        self.payload = payload
        air_bits = (payload + HEADER_BYTES) * 8
        radios = [PricedRadio(price) for price in radios]
        self.nodes = []
        for k, (radio, kind, crashed, action) in enumerate(specs):
            price = radios[radio].rx_cost(air_bits)
            if kind == "shared" and self.nodes:
                battery = self.nodes[-1].battery
            else:
                battery = Battery({"once": price, "twice": price * 2,
                                   "tiny": 5e-324, "mains": inf,
                                   "flat": 0.0, "shared": 1e-5}.get(kind, kind))
                battery.on_depleted(lambda k=k: self.log.append(("empty", k)))
            node = Node(f"n{k}", self.medium.sim, battery=battery,
                        radio=radios[radio])
            node.events.on("depleted",
                           lambda n: self.log.append(("depleted", n.node_id)))
            if crashed:
                node.crash()
            if action is not None:
                node.set_packet_handler(self._handler(action))
            self.nodes.append(node)
        if faults is not None:
            self.medium.set_delivery_fault(self._fault(faults))

    def _handler(self, action):
        def handler(node, packet):
            self.log.append(("heard", node.node_id, packet.payload,
                             packet.payload_bytes))
            if action == "raise":
                raise RuntimeError(node.node_id)
            if isinstance(action, int) and action < len(self.nodes):
                self.nodes[action].crash()
        return handler

    def _fault(self, faults):
        def fault(receiver_id, packet):
            answer = faults[int(receiver_id[1:])]
            self.log.append(("fault", receiver_id, answer))
            if answer == "swallow":
                return None
            if answer == "pass":
                return packet
            return Packet(packet.source, packet.destination, b"resized",
                          max(0, packet.payload_bytes + answer))
        return fault

    def hear(self, members, on_air, reference):
        receivers = [self.nodes[k] for k in members]
        packet = Packet("src", BROADCAST, b"frame", self.payload)
        try:
            if on_air and reference:
                reference_deliver(self.medium, receivers, packet)
            elif on_air:
                self.medium._deliver(receivers, packet)
            elif reference:
                reference_wire(receivers[0], packet)
            else:  # what WiredLink.transmit schedules
                self.link._deliver(receivers[:1], packet, False)
        except RuntimeError as raised:
            self.log.append(("raised", str(raised)))

    def snapshot(self):
        medium = self.medium
        return (self.log,
                (medium.deliveries, medium.drops_dead, medium.drops_faulted),
                [(node.packets_received, node.bytes_received,
                  repr(node.battery.remaining), node._crashed)
                 for node in self.nodes])


class TestDeliverMatchesReference:
    """Batch for batch, the one loop leaves what the per-receiver routine
    left: batteries, depletion order, counters and handler calls."""

    @given(_plans())
    def test_same_reception(self, plan):
        loop, reference = _World(plan), _World(plan)
        wired = 0
        for members, on_air in plan[3]:
            if members or on_air:
                wired += not on_air
                loop.hear(members, on_air, reference=False)
                reference.hear(members, on_air, reference=True)
        assert loop.snapshot() == reference.snapshot()
        link = loop.link
        assert (link.deliveries + link.drops_dead, link.drops_faulted) == (
            wired, 0)


@pytest.mark.parametrize("price", [-1e-9, float("nan")])
def test_a_negative_or_nan_price_is_refused(price):
    """The loop's in-place charge never sees a price ``Battery.drain``
    would refuse: it is checked once per radio instead."""
    medium = WirelessMedium(Simulator(), IDEAL_RADIO)
    node = Node("n0", medium.sim, battery=Battery(1.0),
                radio=PricedRadio(price))
    with pytest.raises(ConfigurationError, match="negative energy"):
        medium._deliver([node], Packet("src", BROADCAST, b"x", 8))
    assert node.battery.remaining == 1.0
