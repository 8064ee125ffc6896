"""Tests for the transport layer: addresses, in-memory fabric and simnet."""

import pytest

from repro.errors import AddressError, ConfigurationError, TransportClosedError
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric
from repro.transport.simnet import SimFabric, SimScheduler


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
