"""Tests for the transport layer: addresses, in-memory fabric and simnet,
and one rig per transport class."""

import re
from pathlib import Path

import pytest

import repro
from repro.errors import AddressError, ConfigurationError, TransportClosedError
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.qos.bandwidth import BandwidthAllocator
from repro.routing.base import RoutedTransport, RoutingAgent
from repro.routing.flooding import FloodingRouter
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric, InMemoryTransport
from repro.transport.pacing import PacedTransport
from repro.transport.reliable import ReliabilityParams, ReliableTransport
from repro.transport.secure import SecureTransport
from repro.transport.simnet import SimFabric, SimScheduler, SimTransport
from repro.transport.stack import build_stack


class TestAddress:
    def test_str_round_trip(self):
        address = Address("node7", "rpc")
        assert Address.parse(str(address)) == address

    def test_parse_default_port(self):
        assert Address.parse("node7") == Address("node7", "default")

    def test_parse_rejects_empty(self):
        with pytest.raises(AddressError):
            Address.parse("")

    def test_parse_rejects_missing_node(self):
        with pytest.raises(AddressError):
            Address.parse(":port")

    def test_ordering_is_stable(self):
        addresses = [Address("b"), Address("a", "z"), Address("a", "a")]
        assert sorted(addresses) == [Address("a", "a"), Address("a", "z"), Address("b")]


class TestInMemoryFabric:
    def test_basic_delivery(self):
        fabric = InMemoryFabric()
        a = fabric.endpoint("a")
        b = fabric.endpoint("b")
        got = []
        b.set_receiver(lambda src, data: got.append((str(src), data)))
        a.send(b.local_address, b"hello")
        fabric.run()
        assert got == [("a:default", b"hello")]

    def test_latency_applied(self):
        fabric = InMemoryFabric(latency_s=0.5)
        a = fabric.endpoint("a")
        b = fabric.endpoint("b")
        arrival = []
        b.set_receiver(lambda src, data: arrival.append(fabric.sim.now()))
        a.send(b.local_address, b"x")
        fabric.run()
        assert arrival == [0.5]

    def test_unknown_destination_dropped(self):
        fabric = InMemoryFabric()
        a = fabric.endpoint("a")
        a.send(Address("ghost"), b"x")
        fabric.run()
        assert fabric.messages_dropped == 1

    def test_loss_probability(self):
        fabric = InMemoryFabric(loss_probability=0.5, seed=3)
        a = fabric.endpoint("a")
        b = fabric.endpoint("b")
        got = []
        b.set_receiver(lambda src, data: got.append(1))
        for _ in range(200):
            a.send(b.local_address, b"x")
        fabric.run()
        assert 50 < len(got) < 150

    def test_send_after_close_raises(self):
        fabric = InMemoryFabric()
        a = fabric.endpoint("a")
        a.close()
        with pytest.raises(TransportClosedError):
            a.send(Address("b"), b"x")

    def test_closed_endpoint_does_not_receive(self):
        fabric = InMemoryFabric()
        a = fabric.endpoint("a")
        b = fabric.endpoint("b")
        got = []
        b.set_receiver(lambda src, data: got.append(1))
        b.close()
        a.send(Address("b"), b"x")
        fabric.run()
        assert got == []

    def test_duplicate_endpoint_rejected(self):
        fabric = InMemoryFabric()
        fabric.endpoint("a")
        with pytest.raises(ConfigurationError):
            fabric.endpoint("a")

    def test_non_bytes_payload_rejected(self):
        fabric = InMemoryFabric()
        a = fabric.endpoint("a")
        with pytest.raises(TypeError):
            a.send(Address("b"), "not bytes")

    def test_counters(self):
        fabric = InMemoryFabric()
        a = fabric.endpoint("a")
        b = fabric.endpoint("b")
        b.set_receiver(lambda src, data: None)
        a.send(b.local_address, b"12345")
        fabric.run()
        assert a.sent_messages == 1 and a.sent_bytes == 5
        assert b.received_messages == 1 and b.received_bytes == 5


class TestSimFabric:
    def test_port_demultiplexing(self, ideal_star):
        network, fabric = ideal_star
        rpc = fabric.endpoint("leaf0", "rpc")
        disc = fabric.endpoint("leaf0", "disc")
        sender = fabric.endpoint("hub", "any")
        got = []
        rpc.set_receiver(lambda src, data: got.append(("rpc", data)))
        disc.set_receiver(lambda src, data: got.append(("disc", data)))
        sender.send(Address("leaf0", "rpc"), b"r")
        sender.send(Address("leaf0", "disc"), b"d")
        network.sim.run()
        assert sorted(got) == [("disc", b"d"), ("rpc", b"r")]

    def test_broadcast_reaches_neighbors(self, ideal_star):
        network, fabric = ideal_star
        hub = fabric.endpoint("hub", "p")
        got = []
        for i in range(6):
            endpoint = fabric.endpoint(f"leaf{i}", "p")
            endpoint.set_receiver(
                lambda src, data, i=i: got.append(f"leaf{i}")
            )
        hub.broadcast(b"hello")
        network.sim.run()
        assert sorted(got) == [f"leaf{i}" for i in range(6)]

    def test_source_address_preserved(self, ideal_star):
        network, fabric = ideal_star
        a = fabric.endpoint("leaf0", "x")
        b = fabric.endpoint("leaf1", "y")
        sources = []
        b.set_receiver(lambda src, data: sources.append(src))
        a.send(Address("leaf1", "y"), b"m")
        network.sim.run()
        assert sources == [Address("leaf0", "x")]

    def test_out_of_range_unicast_silently_lost(self, chain):
        network, fabric = chain
        a = fabric.endpoint("n0", "p")
        b = fabric.endpoint("n4", "p")
        got = []
        b.set_receiver(lambda src, data: got.append(1))
        a.send(Address("n4", "p"), b"too far")  # 4 hops away
        network.sim.run()
        assert got == []

    def test_inject_local_delivery(self, ideal_star):
        network, fabric = ideal_star
        target = fabric.endpoint("hub", "svc")
        got = []
        target.set_receiver(lambda src, data: got.append((str(src), data)))
        fabric.inject(Address("hub", "svc"), Address("hub", "router"), b"local")
        assert got == [("hub:router", b"local")]

    def test_unknown_port_dropped(self, ideal_star):
        network, fabric = ideal_star
        a = fabric.endpoint("leaf0", "p")
        a.send(Address("leaf1", "unbound"), b"x")
        network.sim.run()  # must not raise


def test_a_fabric_holds_one_scheduler(ideal_star):
    """The fabric-wide scheduler is the fabric's simulator. A simulated
    network's endpoints on one node share that node's skewable view, the
    same instance on every read — a skew set on it is seen by every holder."""
    network, fabric = ideal_star
    memory = InMemoryFabric()
    assert fabric.scheduler is network.sim
    assert memory.endpoint("hub", "a").scheduler is memory.sim
    a, b = fabric.endpoint("hub", "a"), fabric.endpoint("hub", "b")
    assert a.scheduler is b.scheduler
    assert type(a.scheduler) is SimScheduler


# ------------------------------------------------------------ transport rigs
#
# One rig per ``Transport`` subclass under ``src/repro``. A rig builds the
# class over a fresh world and returns ``(top, scheduler, address)``: the
# transport under test, and the scheduler and local address it must carry
# unchanged from what it is built on (its inner transport, or for a base
# transport its fabric's node).


def _star():
    return SimFabric(topology.star(2, radius=40, radio_profile=IDEAL_RADIO))


def _sim_rig():
    fabric = _star()
    return (fabric.endpoint("hub", "rig"), fabric.scheduler_for("hub"),
            Address("hub", "rig"))


def _memory_rig():
    fabric = InMemoryFabric()
    return fabric.endpoint("a", "rig"), fabric.sim, Address("a", "rig")


def _wrapping(wrap):
    def rig():
        inner = _star().endpoint("hub", "rig")
        return wrap(inner), inner.scheduler, inner.local_address
    return rig


def _routed_rig():
    agent = RoutingAgent(_star(), "hub", FloodingRouter())
    return agent.open_port("rig"), agent.endpoint.scheduler, Address("hub", "rig")


TRANSPORT_RIGS = {
    SimTransport: _sim_rig,
    InMemoryTransport: _memory_rig,
    SecureTransport: _wrapping(lambda inner: SecureTransport(inner, b"k" * 16)),
    ReliableTransport: _wrapping(ReliableTransport),
    PacedTransport: _wrapping(lambda inner: PacedTransport(
        inner, BandwidthAllocator(1e6), "rig", rate_bps=1e5)),
    RoutedTransport: _routed_rig,
}


def test_every_transport_class_has_a_rig():
    declared = re.compile(r"^class (\w+)\(Transport\):", re.M)
    classes = {name for path in Path(repro.__file__).parent.rglob("*.py")
               for name in declared.findall(path.read_text())}
    rigged = {cls.__name__ for cls in TRANSPORT_RIGS}
    assert sorted(classes - rigged) == [], "a Transport subclass has no rig"
    assert classes == rigged


@pytest.mark.parametrize("cls", list(TRANSPORT_RIGS), ids=lambda c: c.__name__)
def test_a_transport_carries_its_base_scheduler_and_address(cls):
    top, scheduler, address = TRANSPORT_RIGS[cls]()
    assert type(top) is cls
    assert top.scheduler is scheduler
    assert top.local_address == address
    top.close()
    with pytest.raises(TransportClosedError):
        top.send(Address("leaf0", "rig"), b"x")


@pytest.mark.parametrize("skew", [1.0, 2.0])
def test_a_skew_set_after_the_stack_is_built_stretches_its_timers(skew):
    """A layer binds its scheduler when it is built; the node's skew is a
    field of that same object, so a skew set later still reaches it."""
    fabric = _star()
    stack = build_stack(fabric.endpoint("hub", "bulk"))
    fabric.set_clock_skew("hub", skew)
    stack.send(Address("leaf0", "bulk"), b"x")  # no port there: never acked
    first = ReliabilityParams().ack_timeout_s * skew
    sim = fabric.network.sim
    sim.run_until(first * 0.99)
    assert stack.retransmissions == 0
    sim.run_until(first * 1.01)
    assert stack.retransmissions == 1
