"""Tests for the network simulator: packets, nodes, medium, links, network."""

import pytest

from repro.errors import ConfigurationError
from repro.netsim.energy import Battery
from repro.netsim.link import ATM_155M, ETHERNET_10M, LinkProfile, WiredLink
from repro.netsim.medium import BLUETOOTH, IDEAL_RADIO, RadioProfile, WIFI_80211
from repro.netsim.network import Network
from repro.netsim.packet import BROADCAST, HEADER_BYTES, Packet
from repro.netsim.simulator import Simulator
from repro.util.geometry import Point
from tests.netsim_fixtures import (
    detach,
    is_connected,
    recharge,
    serialization_delay,
    set_position,
)


def make_packet(src="a", dst="b", size=100):
    return Packet(source=src, destination=dst, payload=b"x", payload_bytes=size)


class TestPacket:
    def test_size_includes_header(self):
        packet = make_packet(size=100)
        assert packet.size_bytes == 100 + HEADER_BYTES
        assert packet.size_bits == (100 + HEADER_BYTES) * 8

    def test_negative_payload_size_rejected(self):
        # Rejected at construction, not later inside the event loop when
        # a radio is asked to price a frame of -672 bits.
        with pytest.raises(ConfigurationError):
            make_packet(size=-100)
        with pytest.raises(ConfigurationError):
            Packet("a", "b", b"", -1)
        assert make_packet(size=0).size_bytes == HEADER_BYTES

    def test_broadcast_detection(self):
        assert make_packet(dst=BROADCAST).is_broadcast
        assert not make_packet(dst="n1").is_broadcast

    # ``__init__`` is written out: what the dataclass gave.

    def test_trace_defaults_to_none(self):
        assert make_packet().trace is None

    def test_positional_and_keyword_construction_agree(self):
        trace = object()
        by_position = Packet("a", "b", b"x", 7, trace)
        by_keyword = Packet(trace=trace, payload_bytes=7, payload=b"x",
                            destination="b", source="a")
        assert by_position == by_keyword
        assert by_position.trace is trace
        assert by_position != Packet("a", "b", b"x", 7)
        with pytest.raises(TypeError):
            Packet("a", "b", b"x")  # payload_bytes has no default

    def test_repr_eq_fields_and_slots_are_the_dataclass_ones(self):
        packet = Packet("a", "b", b"x", 7)
        assert repr(packet) == (
            "Packet(source='a', destination='b', payload=b'x', "
            "payload_bytes=7, trace=None)")
        assert Packet.__slots__ == (
            "source", "destination", "payload", "payload_bytes", "trace")
        fields = {name: getattr(packet, name) for name in Packet.__slots__}
        assert Packet(**{**fields, "payload_bytes": 8}).payload_bytes == 8
        assert not hasattr(packet, "__dict__")
        with pytest.raises(AttributeError):
            packet.scratch = 1

    def test_survives_a_process_boundary(self):
        import pickle

        packet = Packet("a", "b", (1, "two"), 7)
        assert pickle.loads(pickle.dumps(packet)) == packet


class TestRadioProfile:
    def test_serialization_delay(self):
        profile = RadioProfile("test", bandwidth_bps=1e6, range_m=10)
        assert serialization_delay(profile, 1e6) == pytest.approx(1.0)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            RadioProfile("bad", bandwidth_bps=0, range_m=10)

    def test_invalid_loss_rejected(self):
        with pytest.raises(ConfigurationError):
            RadioProfile("bad", bandwidth_bps=1, range_m=10, loss_probability=1.0)

    def test_stock_profiles(self):
        assert BLUETOOTH.range_m < WIFI_80211.range_m
        assert IDEAL_RADIO.loss_probability == 0.0


class TestNetworkDelivery:
    def test_unicast_in_range(self):
        network = Network(radio_profile=IDEAL_RADIO)
        network.add_node("a", position=Point(0, 0))
        node_b = network.add_node("b", position=Point(10, 0))
        got = []
        node_b.set_packet_handler(lambda node, pkt: got.append(pkt.payload))
        network.send("a", make_packet("a", "b"))
        network.sim.run()
        assert got == [b"x"]

    def test_unicast_out_of_range_dropped(self):
        network = Network()  # 802.11: 100 m range
        network.add_node("a", position=Point(0, 0))
        node_b = network.add_node("b", position=Point(500, 0))
        got = []
        node_b.set_packet_handler(lambda node, pkt: got.append(pkt))
        network.send("a", make_packet("a", "b"))
        network.sim.run()
        assert got == []
        assert network.medium.drops_out_of_range == 1

    def test_broadcast_reaches_all_in_range(self):
        network = Network(radio_profile=IDEAL_RADIO)
        network.add_node("a", position=Point(0, 0))
        received = []
        for i, x in enumerate((10, 20, 30)):
            node = network.add_node(f"n{i}", position=Point(x, 0))
            node.set_packet_handler(lambda node, pkt: received.append(node.node_id))
        network.send("a", make_packet("a", BROADCAST))
        network.sim.run()
        assert sorted(received) == ["n0", "n1", "n2"]

    def test_dead_node_does_not_receive(self):
        network = Network(radio_profile=IDEAL_RADIO)
        network.add_node("a", position=Point(0, 0))
        node_b = network.add_node("b", position=Point(10, 0))
        got = []
        node_b.set_packet_handler(lambda node, pkt: got.append(pkt))
        node_b.crash()
        network.send("a", make_packet("a", "b"))
        network.sim.run()
        assert got == []

    def test_dead_sender_cannot_send(self):
        network = Network(radio_profile=IDEAL_RADIO)
        node_a = network.add_node("a", position=Point(0, 0))
        network.add_node("b", position=Point(10, 0))
        node_a.crash()
        assert not network.send("a", make_packet("a", "b"))

    def test_dead_sender_moves_no_counter(self):
        network = Network(radio_profile=IDEAL_RADIO)
        flat = network.add_node("a", battery=Battery(capacity=1.0))
        crashed = network.add_node("b", position=Point(10, 0))
        flat.battery.drain(1.0)
        crashed.crash()
        medium = network.medium
        before = {name: value for name, value in vars(medium).items()
                  if isinstance(value, int)}
        assert network.send("a", make_packet("a", "b")) is False
        assert network.send("b", make_packet("b", BROADCAST)) is False
        assert before == {name: getattr(medium, name) for name in before}
        assert before["transmissions"] == 0
        assert (flat.packets_sent, crashed.packets_sent) == (0, 0)
        assert network.sim._live == 0

    def test_unknown_sender_raises(self):
        network = Network(radio_profile=IDEAL_RADIO)
        network.add_node("a")
        with pytest.raises(ConfigurationError, match="unknown node 'ghost'"):
            network.send("ghost", make_packet("ghost", "a"))
        network.add_link("a", network.add_node("b").node_id)
        with pytest.raises(ConfigurationError, match="unknown node 'ghost'"):
            network.send("ghost", make_packet("ghost", "a"))

    def test_sender_known_to_the_network_but_off_the_medium(self):
        # The medium is the one that knows who is attached, and says so.
        network = Network(radio_profile=IDEAL_RADIO)
        network.add_node("a")
        network.add_node("b", position=Point(10, 0))
        detach(network.medium, "a")
        with pytest.raises(ConfigurationError, match="not attached"):
            network.send("a", make_packet("a", "b"))
        network.node("a").crash()  # dead or alive, it is not on the air
        with pytest.raises(ConfigurationError, match="not attached"):
            network.send("a", make_packet("a", "b"))
        assert network.medium.transmissions == 0

    def test_first_wired_link_takes_over_from_then_on(self):
        network = Network(radio_profile=IDEAL_RADIO)
        network.add_node("a")
        node_b = network.add_node("b", position=Point(10, 0))
        got = []
        node_b.set_packet_handler(lambda node, pkt: got.append(pkt.payload))
        for _ in range(3):
            assert network.send("a", make_packet("a", "b"))
        assert network.medium.transmissions == 3
        link = network.add_link("a", "b")
        assert network.send("a", make_packet("a", "b"))
        assert network.medium.transmissions == 3  # the wire carried it
        assert link.transmissions == 1
        # Broadcast: over the air and down the wire.
        assert network.send("a", make_packet("a", BROADCAST))
        assert network.medium.transmissions == 4
        assert link.transmissions == 2
        network.sim.run()
        assert len(got) == 6

    def test_transmission_drains_sender_battery(self):
        network = Network(radio_profile=IDEAL_RADIO)
        node_a = network.add_node("a", position=Point(0, 0), battery=Battery(capacity=1.0))
        network.add_node("b", position=Point(10, 0))
        network.send("a", make_packet("a", "b"))
        assert node_a.battery.remaining < 1.0

    def test_reception_drains_receiver_battery(self):
        network = Network(radio_profile=IDEAL_RADIO)
        network.add_node("a", position=Point(0, 0))
        node_b = network.add_node("b", position=Point(10, 0), battery=Battery(capacity=1.0))
        network.send("a", make_packet("a", "b"))
        network.sim.run()
        assert node_b.battery.remaining < 1.0

    def test_lossy_medium_drops_fraction(self):
        profile = RadioProfile("lossy", bandwidth_bps=1e9, range_m=1000,
                               loss_probability=0.5)
        network = Network(radio_profile=profile, seed=11)
        network.add_node("a", position=Point(0, 0))
        node_b = network.add_node("b", position=Point(10, 0))
        got = []
        node_b.set_packet_handler(lambda node, pkt: got.append(1))
        for _ in range(200):
            network.send("a", make_packet("a", "b"))
        network.sim.run()
        assert 50 < len(got) < 150  # roughly half lost

    def test_duplicate_node_id_rejected(self):
        network = Network()
        network.add_node("a")
        with pytest.raises(ConfigurationError):
            network.add_node("a")

    def test_unknown_node_lookup_raises(self):
        with pytest.raises(ConfigurationError):
            Network().node("ghost")


class TestNodeLifecycle:
    def test_crash_and_recover_events(self):
        network = Network()
        node = network.add_node("a")
        events = []
        node.events.on("crashed", lambda n: events.append("crashed"))
        node.events.on("recovered", lambda n: events.append("recovered"))
        node.crash()
        node.crash()  # idempotent
        node.recover()
        assert events == ["crashed", "recovered"]

    def test_subscriber_added_after_construction_is_called(self):
        network = Network()
        node = network.add_node("a")
        node.crash()  # nobody listens yet: nothing to tell
        node.recover()
        events = []
        node.events.on("crashed", events.append)
        node.crash()
        assert events == [node]

    def test_depleted_fires_once_for_a_finite_battery(self):
        node = Network().add_node("a", battery=Battery(capacity=1.0))
        depleted = []
        node.events.on("depleted", depleted.append)
        assert node.battery.drain(0.6)
        assert not node.battery.drain(0.6)
        recharge(node.battery, 1.0)
        assert not node.battery.drain(2.0)  # emptied again: no second event
        assert depleted == [node]

    def test_depleted_fires_once_for_an_infinite_battery_drained_by_inf(self):
        node = Network().add_node("a")  # the default, infinite battery
        depleted = []
        node.events.on("depleted", depleted.append)
        assert node.battery.drain(1e30)
        assert not node.battery.drain(float("inf"))  # inf - inf is NaN
        assert not node.battery.drain(float("inf"))
        assert depleted == [node] and not node.alive

    def test_a_shared_battery_tells_each_of_its_nodes(self):
        network = Network()
        battery = Battery(capacity=1.0)
        nodes = [network.add_node(name, battery=battery) for name in "ab"]
        depleted = []
        for node in nodes:
            node.events.on("depleted", depleted.append)
        battery.drain(2.0)
        assert depleted == nodes

    def test_a_moved_node_tells_its_medium_then_its_subscribers(self):
        network = Network()
        node = network.add_node("a")
        medium = network.medium
        seen = []
        node.events.on("moved", lambda n: seen.append(
            dict(medium._static_neighbourhoods)))
        medium._static_neighbourhoods["a"] = ()
        set_position(node, Point(5.0, 0.0))
        assert seen == [{}]  # the memo was cleared before the event
        assert medium.neighbors_of("a") == []

    def test_a_detached_node_that_moves_leaves_the_medium_alone(self):
        network = Network()
        node = network.add_node("a")
        medium = network.medium
        detach(medium, "a")
        memo = medium._static_neighbourhoods
        memo["b"] = ()
        set_position(node, Point(5.0, 0.0))
        assert memo == {"b": ()}
        network.medium.attach(node)  # and it can be attached again
        set_position(node, Point(6.0, 0.0))
        assert memo == {}

    def test_a_node_is_on_one_medium_at_a_time(self):
        network = Network()
        node = network.add_node("a")
        other = Network(sim=network.sim)
        with pytest.raises(ConfigurationError):
            other.medium.attach(node)

    def test_depleted_node_is_down(self):
        network = Network(radio_profile=IDEAL_RADIO)
        node = network.add_node("a", battery=Battery(capacity=1e-12))
        network.add_node("b", position=Point(10, 0))
        network.send("a", make_packet("a", "b", size=10000))
        assert not node.alive


class TestWiredLink:
    def test_delivers_both_directions(self):
        sim = Simulator()
        network = Network(sim=sim)
        node_a = network.add_node("a")
        node_b = network.add_node("b", position=Point(10000, 0))  # out of radio range
        link = network.add_link("a", "b")
        got = []
        node_a.set_packet_handler(lambda node, pkt: got.append(("a", pkt.payload)))
        node_b.set_packet_handler(lambda node, pkt: got.append(("b", pkt.payload)))
        network.send("a", make_packet("a", "b"))
        network.send("b", make_packet("b", "a"))
        sim.run()
        assert sorted(got) == [("a", b"x"), ("b", b"x")]

    def test_self_link_rejected(self):
        network = Network()
        node = network.add_node("a")
        with pytest.raises(ConfigurationError):
            WiredLink(network.sim, node, node)

    def test_other_end(self):
        network = Network()
        node_a = network.add_node("a")
        node_b = network.add_node("b")
        link = network.add_link("a", "b")
        assert link.other_end("a") is node_b
        assert link.other_end("b") is node_a
        with pytest.raises(ConfigurationError):
            link.other_end("c")

    def test_lossy_wire_drops_fraction(self):
        network = Network(seed=5)
        network.add_node("a")
        node_b = network.add_node("b", position=Point(50000, 0))
        lossy = LinkProfile("lossy-wire", bandwidth_bps=1e6, latency_s=0.001,
                            loss_probability=0.5)
        network.add_link("a", "b", lossy)
        got = []
        node_b.set_packet_handler(lambda node, pkt: got.append(1))
        for _ in range(200):
            network.send("a", Packet("a", "b", payload=b"x", payload_bytes=10))
        network.sim.run()
        assert 50 < len(got) < 150

    def test_atm_faster_than_ethernet_for_big_frames(self):
        def one_way_latency(profile):
            network = Network()
            network.add_node("a")
            node_b = network.add_node("b", position=Point(50000, 0))
            network.add_link("a", "b", profile)
            arrival = []
            node_b.set_packet_handler(lambda node, pkt: arrival.append(network.sim.now()))
            network.send("a", Packet("a", "b", payload=b"x", payload_bytes=100000))
            network.sim.run()
            return arrival[0]

        # 100 kB serializes in 80 ms at 10 Mbps vs ~5 ms at 155 Mbps; ATM's
        # higher base latency does not make up the difference.
        assert one_way_latency(ATM_155M) < one_way_latency(ETHERNET_10M)

    def test_broadcast_crosses_wired_links_too(self):
        network = Network()
        network.add_node("a")
        far = network.add_node("far", position=Point(50000, 0))
        network.add_link("a", "far")
        got = []
        far.set_packet_handler(lambda node, pkt: got.append(pkt.payload))
        network.send("a", Packet("a", BROADCAST, payload=b"hi", payload_bytes=2))
        network.sim.run()
        assert got == [b"hi"]


class TestTopologyQueries:
    def test_neighbors_by_range(self):
        network = Network()  # 100 m
        network.add_node("a", position=Point(0, 0))
        network.add_node("near", position=Point(50, 0))
        network.add_node("far", position=Point(500, 0))
        assert [n.node_id for n in network.neighbors("a")] == ["near"]

    def test_wired_peer_counts_as_neighbor(self):
        network = Network()
        network.add_node("a", position=Point(0, 0))
        network.add_node("far", position=Point(5000, 0))
        network.add_link("a", "far")
        assert "far" in {n.node_id for n in network.neighbors("a")}

    def test_reachability_multi_hop(self):
        network = Network()
        for i in range(4):
            network.add_node(f"n{i}", position=Point(i * 60.0, 0))
        assert network.reachable_from("n0") == {"n0", "n1", "n2", "n3"}

    def test_is_connected_detects_partition(self):
        network = Network()
        network.add_node("a", position=Point(0, 0))
        network.add_node("b", position=Point(50, 0))
        network.add_node("island", position=Point(10000, 0))
        assert not is_connected(network)
        assert is_connected(network, ["a", "b"])

    def test_crashed_nodes_break_connectivity(self):
        network = Network()
        for i in range(3):
            network.add_node(f"n{i}", position=Point(i * 60.0, 0))
        network.node("n1").crash()
        assert "n2" not in network.reachable_from("n0")

    def test_total_energy_ignores_mains(self):
        network = Network()
        network.add_node("battery", battery=Battery(capacity=2.0))
        network.add_node("mains")
        assert network.total_energy_remaining() == 2.0
