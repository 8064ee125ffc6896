"""Tests for the routing layer: all strategies plus the agent chassis."""

import pytest

from repro.errors import ConfigurationError
from repro.netsim import topology
from repro.netsim.energy import Battery
from repro.netsim.medium import IDEAL_RADIO
from repro.netsim.network import Network
from repro.interop.frames import WireFrame
from repro.routing.base import Envelope, RoutingAgent, build_routed_network
from repro.routing.datacentric import GRADIENT_LIFETIME_S, DataCentricAgent
from repro.routing.dsr import DISCOVERY_TIMEOUT_S, DsrRouter
from repro.routing.energyaware import EnergyAwareRouter
from repro.routing.flooding import FloodingRouter
from repro.routing.geographic import GeographicRouter
from repro.routing.linkstate import LinkStateRouter
from repro.transport.base import Address
from repro.transport.simnet import SimFabric
from repro.util.geometry import Point


def routed_chain(n, router_factory, spacing=60):
    network = topology.linear_chain(n, spacing=spacing)
    fabric = SimFabric(network)
    agents = build_routed_network(fabric, router_factory)
    return network, fabric, agents


def end_to_end(network, agents, src, dst, payload=b"data"):
    src_port = agents[src].open_port("app")
    dst_port = agents[dst].open_port("app")
    received = []
    dst_port.set_receiver(lambda source, data: received.append((str(source), data)))
    src_port.send(Address(dst, "app"), payload)
    network.sim.run()
    return received


def parsed_by_agent(fabric, message):
    """The Envelope an agent's receive path builds from one header dict."""
    agent = RoutingAgent(fabric, "hub", FloodingRouter())
    heard = []
    agent._move = heard.append
    agent._on_frame(Address("leaf0", "route"), WireFrame(message, agent.codec))
    assert agent.dropped == {}
    (envelope,) = heard
    return envelope


class TestEnvelope:
    def test_dict_round_trip(self, ideal_star):
        envelope = Envelope(Address("a", "x"), Address("b", "y"), ttl=5, seq=9,
                            payload=b"data", route=["a", "m", "b"])
        again = parsed_by_agent(ideal_star[1], envelope.to_dict())
        assert again.source == envelope.source
        assert again.destination == envelope.destination
        assert again.ttl == 5 and again.seq == 9
        assert again.payload == b"data"
        assert again.route == ["a", "m", "b"]

    def test_route_optional(self, ideal_star):
        envelope = Envelope(Address("a"), Address("b"), 3, 1, b"")
        assert "r" not in envelope.to_dict()
        assert parsed_by_agent(ideal_star[1], envelope.to_dict()).route is None


class TestRoutingAgent:
    def test_local_delivery_without_network(self, ideal_star):
        network, fabric = ideal_star
        agent = RoutingAgent(fabric, "hub", LinkStateRouter(network, "hub"))
        port = agent.open_port("app")
        received = []
        port.set_receiver(lambda src, data: received.append(data))
        port.send(Address("hub", "app"), b"to self")
        network.sim.run()
        assert received == [b"to self"]

    def test_reserved_port_rejected(self, ideal_star):
        network, fabric = ideal_star
        agent = RoutingAgent(fabric, "hub", FloodingRouter())
        with pytest.raises(ConfigurationError):
            agent.open_port("route")

    def test_duplicate_port_rejected(self, ideal_star):
        network, fabric = ideal_star
        agent = RoutingAgent(fabric, "hub", FloodingRouter())
        agent.open_port("app")
        with pytest.raises(ConfigurationError):
            agent.open_port("app")

    def test_ttl_exhaustion_drops(self):
        network = topology.linear_chain(5, spacing=60)
        fabric = SimFabric(network)
        agents = build_routed_network(
            fabric, lambda nid: FloodingRouter(), default_ttl=2
        )
        port = agents["n0"].open_port("low")
        target = agents["n4"].open_port("low")
        received = []
        target.set_receiver(lambda src, data: received.append(data))
        port.send(Address("n4", "low"), b"too far for ttl 2")
        network.sim.run()
        assert received == []

    def test_routed_port_broadcast_reaches_neighbors(self):
        network = topology.star(3, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        agents = build_routed_network(
            fabric, lambda nid: LinkStateRouter(network, nid)
        )
        hub_port = agents["hub"].open_port("app")
        got = []
        for leaf in ("leaf0", "leaf1", "leaf2"):
            port = agents[leaf].open_port("app")
            port.set_receiver(lambda src, data, leaf=leaf: got.append(leaf))
        hub_port.broadcast(b"hello all")
        network.sim.run()
        assert sorted(got) == ["leaf0", "leaf1", "leaf2"]

    def test_not_on_route_dropped(self, ideal_star):
        network, fabric = ideal_star
        agent = RoutingAgent(fabric, "hub", FloodingRouter())
        envelope = Envelope(Address("x", "p"), Address("leaf0", "p"),
                            ttl=5, seq=1, payload=b"",
                            route=["a", "b", "leaf0"])  # hub not on route
        agent._move(envelope)
        assert agent.dropped.get("not-on-route") == 1

    def test_route_exhausted_dropped(self, ideal_star):
        network, fabric = ideal_star
        agent = RoutingAgent(fabric, "hub", FloodingRouter())
        envelope = Envelope(Address("x", "p"), Address("other", "p"),
                            ttl=5, seq=2, payload=b"", route=["a", "hub"])
        agent._move(envelope)
        assert agent.dropped.get("route-exhausted") == 1


class TestLinkState:
    def test_multi_hop_delivery(self):
        network = topology.linear_chain(6, spacing=60)
        fabric = SimFabric(network)
        agents = build_routed_network(
            fabric, lambda nid: LinkStateRouter(network, nid)
        )
        received = end_to_end(network, agents, "n0", "n5")
        assert received == [("n0:app", b"data")]

    def test_no_route_dropped(self):
        network = Network()
        network.add_node("a", position=Point(0, 0))
        network.add_node("island", position=Point(10000, 0))
        fabric = SimFabric(network)
        agents = build_routed_network(
            fabric, lambda nid: LinkStateRouter(network, nid)
        )
        received = end_to_end(network, agents, "a", "island")
        assert received == []
        assert agents["a"].dropped.get("no-route") == 1

    def test_reroutes_after_refresh(self):
        network = topology.grid(1, 4, spacing=60)  # chain n0_0..n0_3
        fabric = SimFabric(network)
        agents = build_routed_network(
            fabric, lambda nid: LinkStateRouter(network, nid, refresh_interval_s=0.5)
        )
        src = agents["n0_0"].open_port("app")
        dst = agents["n0_3"].open_port("app")
        received = []
        dst.set_receiver(lambda s, d: received.append(d))
        src.send(Address("n0_3", "app"), b"first")
        network.sim.run_for(2.0)
        assert received == [b"first"]
        network.node("n0_1").crash()  # chain broken permanently
        network.sim.run_for(2.0)
        src.send(Address("n0_3", "app"), b"second")
        network.sim.run_for(2.0)
        assert received == [b"first"]  # no path exists; dropped, not crashed


class TestEnergyAware:
    def build_diamond(self, tired_fraction):
        network = Network()
        network.add_node("s", position=Point(0, 0), battery=Battery(2.0))
        network.add_node("top", position=Point(50, 10),
                         battery=Battery(2.0, remaining=tired_fraction * 2.0))
        network.add_node("bottom", position=Point(50, -10), battery=Battery(2.0))
        network.add_node("d", position=Point(100, 0), battery=Battery(2.0))
        return network

    def test_avoids_drained_relay(self):
        network = self.build_diamond(tired_fraction=0.02)
        router = EnergyAwareRouter(network, "s", alpha=2.0)
        assert router.next_hop("d") == "bottom"

    def test_alpha_zero_ignores_residual(self):
        network = self.build_diamond(tired_fraction=0.02)
        router = EnergyAwareRouter(network, "s", alpha=0.0)
        # With alpha=0 both relays cost the same (symmetric); the tie breaks
        # deterministically rather than avoiding the tired node.
        assert router.next_hop("d") in ("top", "bottom")

    def test_delivers_end_to_end(self):
        network = topology.linear_chain(4, spacing=60,
                                        battery_factory=lambda nid: Battery(5.0))
        fabric = SimFabric(network)
        agents = build_routed_network(
            fabric, lambda nid: EnergyAwareRouter(network, nid)
        )
        received = end_to_end(network, agents, "n0", "n3")
        assert received == [("n0:app", b"data")]


class TestGeographic:
    def test_grid_delivery(self):
        network = topology.grid(4, 4, spacing=55)
        fabric = SimFabric(network)
        agents = build_routed_network(
            fabric, lambda nid: GeographicRouter(network, nid)
        )
        received = end_to_end(network, agents, "n0_0", "n3_3")
        assert received == [("n0_0:app", b"data")]

    def test_local_minimum_detected(self):
        # A void: source must route "away" from destination, greedy fails.
        network = Network()
        network.add_node("src", position=Point(0, 0))
        network.add_node("detour", position=Point(-60, 0))  # only neighbor
        network.add_node("dst", position=Point(500, 0))
        fabric = SimFabric(network)
        agents = build_routed_network(
            fabric, lambda nid: GeographicRouter(network, nid)
        )
        received = end_to_end(network, agents, "src", "dst")
        assert received == []
        assert agents["src"].router.local_minima == 1

    def test_unknown_destination_dropped(self):
        network = topology.grid(2, 2, spacing=50)
        fabric = SimFabric(network)
        agents = build_routed_network(
            fabric, lambda nid: GeographicRouter(network, nid)
        )
        port = agents["n0_0"].open_port("app")
        port.send(Address("ghost", "app"), b"x")
        network.sim.run()
        assert agents["n0_0"].dropped.get("unknown-destination") == 1


class TestDsr:
    def test_discovery_then_cached_source_routing(self):
        network, fabric, agents = routed_chain(5, lambda nid: DsrRouter(nid))
        src = agents["n0"].open_port("app")
        dst = agents["n4"].open_port("app")
        received = []
        dst.set_receiver(lambda s, d: received.append(d))
        src.send(Address("n4", "app"), b"one")
        network.sim.run()
        src.send(Address("n4", "app"), b"two")
        network.sim.run()
        assert received == [b"one", b"two"]
        assert agents["n0"].router.rreqs_sent == 1  # second send used cache

    def test_intermediate_nodes_learn_routes(self):
        network, fabric, agents = routed_chain(5, lambda nid: DsrRouter(nid))
        src = agents["n0"].open_port("app")
        agents["n4"].open_port("app").set_receiver(lambda s, d: None)
        src.send(Address("n4", "app"), b"x")
        network.sim.run()
        assert agents["n2"].router._route_cache.get("n4") == ["n2", "n3", "n4"]
        assert agents["n2"].router._route_cache.get("n0") == ["n2", "n1", "n0"]

    def test_unreachable_destination_gives_up(self):
        network = Network()
        network.add_node("a", position=Point(0, 0))
        network.add_node("island", position=Point(10000, 0))
        fabric = SimFabric(network)
        agents = build_routed_network(
            fabric, lambda nid: DsrRouter(nid)
        )
        received = end_to_end(network, agents, "a", "island")
        assert received == []
        assert agents["a"].router.discovery_failures == 1

    def test_route_discovery_fails_at_its_deadline(self):
        network = Network()
        network.add_node("a", position=Point(0, 0))
        network.add_node("island", position=Point(10000, 0))
        fabric = SimFabric(network)
        agents = build_routed_network(fabric, lambda nid: DsrRouter(nid))
        agents["a"].open_port("app").send(Address("island", "app"), b"x")
        network.sim.run_until(DISCOVERY_TIMEOUT_S - 0.01)
        assert agents["a"].router.discovery_failures == 0
        network.sim.run_until(DISCOVERY_TIMEOUT_S + 0.01)
        assert agents["a"].router.discovery_failures == 1

    def test_queued_messages_flushed_together(self):
        network, fabric, agents = routed_chain(4, lambda nid: DsrRouter(nid))
        src = agents["n0"].open_port("app")
        dst = agents["n3"].open_port("app")
        received = []
        dst.set_receiver(lambda s, d: received.append(d))
        for i in range(5):
            src.send(Address("n3", "app"), f"m{i}".encode())
        network.sim.run()
        assert sorted(received) == [f"m{i}".encode() for i in range(5)]
        assert agents["n0"].router.rreqs_sent == 1


class TestFlooding:
    def test_reaches_any_connected_node(self):
        network = topology.grid(3, 3, spacing=55)
        fabric = SimFabric(network)
        agents = build_routed_network(fabric, lambda nid: FloodingRouter())
        received = end_to_end(network, agents, "n0_0", "n2_2")
        assert received == [("n0_0:app", b"data")]

    def test_duplicate_suppression_limits_forwards(self):
        network = topology.grid(3, 3, spacing=55)
        fabric = SimFabric(network)
        agents = build_routed_network(fabric, lambda nid: FloodingRouter())
        end_to_end(network, agents, "n0_0", "n2_2")
        total_forwards = sum(agent.forwarded for agent in agents.values())
        # Each node floods at most once: 9 nodes -> at most 9 flood events.
        assert total_forwards <= 9


class TestDataCentric:
    def test_interest_gradient_data_flow(self, chain):
        network, fabric = chain
        agents = {i: DataCentricAgent(fabric, f"n{i}") for i in range(5)}
        received = []
        agents[0].subscribe("temp", lambda name, value, origin:
                            received.append((name, value, origin)))
        network.sim.run()
        fanout = agents[4].publish("temp", 22.5)
        network.sim.run()
        assert received == [("temp", 22.5, "n4")]
        assert fanout == 1

    def test_unrequested_data_is_silent(self, chain):
        network, fabric = chain
        agents = {i: DataCentricAgent(fabric, f"n{i}") for i in range(5)}
        agents[0].subscribe("temp", lambda *a: None)
        network.sim.run()
        assert agents[4].publish("humidity", 50) == 0

    def test_multiple_sinks(self, chain):
        network, fabric = chain
        agents = {i: DataCentricAgent(fabric, f"n{i}") for i in range(5)}
        received = []
        agents[0].subscribe("temp", lambda n, v, o: received.append("n0"))
        agents[4].subscribe("temp", lambda n, v, o: received.append("n4"))
        network.sim.run()
        agents[2].publish("temp", 20)
        network.sim.run()
        assert sorted(received) == ["n0", "n4"]

    def test_gradient_expiry_without_refresh(self, chain):
        network, fabric = chain
        agents = {
            i: DataCentricAgent(fabric, f"n{i}")
            for i in range(5)
        }
        agents[0].subscribe("temp", lambda *a: None)
        network.sim.run()
        network.sim.run_until(network.sim.now() + 2 * GRADIENT_LIFETIME_S)
        assert agents[4].publish("temp", 1) == 0  # gradients gone

    def test_gradient_lasts_one_lifetime(self, chain):
        network, fabric = chain
        agents = {i: DataCentricAgent(fabric, f"n{i}") for i in range(5)}
        agents[0].subscribe("temp", lambda *a: None)
        network.sim.run()
        network.sim.run_until(GRADIENT_LIFETIME_S - 1.0)
        assert agents[4].publish("temp", 1) == 1
        network.sim.run_until(GRADIENT_LIFETIME_S + 1.0)
        assert agents[4].publish("temp", 2) == 0

    def test_local_subscription_sees_own_publish(self, chain):
        network, fabric = chain
        agent = DataCentricAgent(fabric, "n0")
        received = []
        agent.subscribe("x", lambda n, v, o: received.append(v))
        agent.publish("x", 7)
        assert received == [7]

    def test_unsubscribe_stops_local_delivery(self, chain):
        network, fabric = chain
        agent = DataCentricAgent(fabric, "n0")
        got = []
        agent.subscribe("x", lambda n, v, o: got.append(v))
        agent.publish("x", 1)
        del agent._subscriptions["x"]
        agent.publish("x", 2)
        assert got == [1]

    def test_refreshed_interest_keeps_gradient_alive(self, chain):
        network, fabric = chain
        agents = {i: DataCentricAgent(fabric, f"n{i}") for i in range(5)}
        got = []
        agents[0].subscribe("t", lambda n, v, o: got.append(v),
                            refresh_interval_s=10.0)
        # Far beyond one gradient lifetime.
        network.sim.run_until(3 * GRADIENT_LIFETIME_S)
        agents[4].publish("t", 9)
        network.sim.run_until(3 * GRADIENT_LIFETIME_S + 2.0)
        assert got == [9]
