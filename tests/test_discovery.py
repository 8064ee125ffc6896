"""Tests for service discovery: descriptions, matching, registry, modes."""

import pytest

from repro.discovery.adaptive import (
    DENSITY_THRESHOLD,
    REEVALUATE_INTERVAL_S,
    REGISTRY_FAILURE_LIMIT,
    AdaptiveDiscovery,
)
from repro.discovery.description import ServiceDescription
from repro.discovery.distributed import DistributedDiscovery
from repro.discovery.matching import AttributeConstraint, Matcher, Query
from repro.discovery.mirror import MirrorGroup
from repro.discovery.registry import REQUEST_RETRIES, RegistryClient, RegistryServer
from repro.errors import DiscoveryError
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.qos.spec import ConsumerQoS, SupplierQoS
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric
from repro.transport.simnet import SimFabric


def make_description(service_id="s1", service_type="printer", **kwargs):
    return ServiceDescription(
        service_id=service_id, service_type=service_type,
        provider=kwargs.pop("provider", "node:svc"), **kwargs,
    )


def cached_services(discovery):
    """What ``discovery``'s cache answers with now, expired entries pruned."""
    discovery._prune_cache()
    return [entry.description for entry in discovery._cache.values()]


def total_registered(group):
    """Registrations across mirrors (equal everywhere once synced)."""
    return max(len(server) for server in group.servers)


class TestServiceDescription:
    def test_dict_round_trip(self):
        description = make_description(
            attributes={"color": "yes"},
            qos=SupplierQoS(reliability=0.9, encrypted=True,
                            properties={"var:hr": "0.8"}),
            position=(1.0, 2.0),
            interface_markup="<interface name='x'/>",
        )
        again = ServiceDescription.from_dict(description.to_dict())
        assert again == description

    def test_sml_round_trip(self):
        description = make_description(
            attributes={"ppm": "20"}, qos=SupplierQoS(reliability=0.9),
            position=(3.5, -1.0),
        )
        again = ServiceDescription.from_markup(description.markup())
        assert again.service_id == description.service_id
        assert again.attributes == description.attributes
        assert again.qos.reliability == pytest.approx(0.9)
        assert again.position == (3.5, -1.0)

    def test_empty_fields_rejected(self):
        with pytest.raises(DiscoveryError):
            make_description(service_id="")
        with pytest.raises(DiscoveryError):
            make_description(service_type="")

    def test_malformed_dict_rejected(self):
        with pytest.raises(DiscoveryError):
            ServiceDescription.from_dict({"service_id": "x"})


class TestAttributeConstraint:
    def test_equality(self):
        assert AttributeConstraint("a", "=", "1").matches({"a": "1"})
        assert not AttributeConstraint("a", "=", "1").matches({"a": "2"})

    def test_inequality_with_missing_attribute(self):
        assert AttributeConstraint("a", "!=", "1").matches({})

    def test_contains(self):
        assert AttributeConstraint("a", "contains", "ell").matches({"a": "hello"})

    def test_numeric_comparison(self):
        assert AttributeConstraint("ppm", ">=", "10").matches({"ppm": "20"})
        assert not AttributeConstraint("ppm", "<=", "10").matches({"ppm": "20"})

    def test_non_numeric_comparison_fails(self):
        assert not AttributeConstraint("ppm", ">=", "10").matches({"ppm": "fast"})

    def test_unknown_operator_rejected(self):
        with pytest.raises(DiscoveryError):
            AttributeConstraint("a", "~", "x")


class TestMatcher:
    def test_type_filter(self):
        matcher = Matcher()
        printer = make_description("p", "printer")
        camera = make_description("c", "camera")
        results = matcher.match([printer, camera], Query("printer"))
        assert [m.description.service_id for m in results] == ["p"]

    def test_wildcard_type(self):
        matcher = Matcher()
        results = matcher.match(
            [make_description("a", "x"), make_description("b", "y")], Query("*")
        )
        assert len(results) == 2

    def test_constraints_applied(self):
        matcher = Matcher()
        fast = make_description("fast", "printer", attributes={"ppm": "30"})
        slow = make_description("slow", "printer", attributes={"ppm": "5"})
        query = Query("printer", (AttributeConstraint("ppm", ">=", "10"),))
        assert [m.description.service_id for m in matcher.match([fast, slow], query)] == ["fast"]

    def test_qos_ranking(self):
        matcher = Matcher()
        good = make_description("good", "s", qos=SupplierQoS(reliability=0.99))
        weak = make_description("weak", "s", qos=SupplierQoS(reliability=0.85))
        query = Query("s", consumer=ConsumerQoS(min_reliability=0.8))
        ranked = matcher.match([weak, good], query)
        assert [m.description.service_id for m in ranked] == ["good", "weak"]

    def test_spatial_ranking(self):
        from repro.qos.spatial import SpatialPreference

        matcher = Matcher()
        near = make_description("near", "printer", position=(1.0, 0.0))
        far = make_description("far", "printer", position=(100.0, 0.0))
        query = Query(
            "printer",
            consumer=ConsumerQoS(spatial=SpatialPreference(scale_m=30)),
            consumer_position=(0.0, 0.0),
        )
        ranked = matcher.match([far, near], query)
        assert [m.description.service_id for m in ranked] == ["near", "far"]

    def test_max_results_cap(self):
        matcher = Matcher()
        many = [make_description(f"s{i}", "t") for i in range(20)]
        assert len(matcher.match(many, Query("t", max_results=5))) == 5

    def test_query_wire_round_trip(self):
        query = Query(
            "printer",
            (AttributeConstraint("ppm", ">=", "10"),),
            consumer=ConsumerQoS(min_reliability=0.8, max_latency_s=0.5),
            consumer_position=(5.0, 6.0),
            max_results=3,
        )
        again = Query.from_dict(query.to_dict())
        assert again.service_type == "printer"
        assert again.constraints[0].op == ">="
        assert again.consumer.min_reliability == pytest.approx(0.8)
        assert again.consumer_position == (5.0, 6.0)
        assert again.max_results == 3


class TestRegistry:
    def setup_registry(self, ideal=True):
        profile = IDEAL_RADIO if ideal else None
        network = topology.star(4, radius=40, radio_profile=profile) if ideal \
            else topology.star(4, radius=40)
        fabric = SimFabric(network)
        server = RegistryServer(fabric.endpoint("hub", "registry"))
        return network, fabric, server

    def test_register_and_lookup(self):
        network, fabric, server = self.setup_registry()
        client = RegistryClient(fabric.endpoint("leaf0", "c"),
                                server.transport.local_address)
        promise = client.register(make_description("svc", "cam", provider="leaf0:svc"))
        network.sim.run_until(1.0)
        assert promise.fulfilled
        lookup = client.lookup(Query("cam"))
        network.sim.run_until(2.0)
        assert [d.service_id for d in lookup.result()] == ["svc"]

    def test_lease_expires_without_renewal(self):
        network, fabric, server = self.setup_registry()
        client = RegistryClient(fabric.endpoint("leaf0", "c"),
                                server.transport.local_address)
        client.register(make_description("svc", "cam"), lease_s=2.0, auto_renew=False)
        network.sim.run_until(1.0)
        assert len(server) == 1
        network.sim.run_until(5.0)
        assert len(server) == 0

    def test_auto_renew_keeps_registration(self):
        network, fabric, server = self.setup_registry()
        client = RegistryClient(fabric.endpoint("leaf0", "c"),
                                server.transport.local_address)
        client.register(make_description("svc", "cam"), lease_s=2.0, auto_renew=True)
        network.sim.run_until(10.0)
        assert len(server) == 1

    def test_unregister(self):
        network, fabric, server = self.setup_registry()
        client = RegistryClient(fabric.endpoint("leaf0", "c"),
                                server.transport.local_address)
        client.register(make_description("svc", "cam"), lease_s=60)
        network.sim.run_until(1.0)
        client.unregister("svc")
        network.sim.run_until(2.0)
        assert len(server) == 0

    def test_expiry_event(self):
        network, fabric, server = self.setup_registry()
        expired = []
        server.events.on("expired", lambda d: expired.append(d.service_id))
        client = RegistryClient(fabric.endpoint("leaf0", "c"),
                                server.transport.local_address)
        client.register(make_description("svc", "cam"), lease_s=1.0, auto_renew=False)
        network.sim.run_until(5.0)
        assert expired == ["svc"]

    def test_lookup_timeout_when_registry_dead(self):
        network, fabric, server = self.setup_registry()
        client = RegistryClient(fabric.endpoint("leaf0", "c"),
                                server.transport.local_address,
                                request_timeout_s=0.5)
        network.node("hub").crash()
        lookup = client.lookup(Query("cam"))
        network.sim.run_until(5.0)
        assert lookup.rejected

    def test_request_is_sent_once_plus_retries_then_rejected(self):
        fabric = InMemoryFabric(latency_s=0.01)
        client = RegistryClient(fabric.endpoint("c", "reg"),
                                Address("nobody", "registry"),
                                request_timeout_s=0.5)
        rejected_at = []
        client.lookup(Query("cam")).on_error(
            lambda error: rejected_at.append(fabric.sim.now()))
        fabric.run()
        assert fabric.messages_dropped == 1 + REQUEST_RETRIES
        assert rejected_at == [pytest.approx((1 + REQUEST_RETRIES) * 0.5)]

    def test_client_retransmits_through_loss(self):
        network = topology.star(4, radius=40, seed=5)  # lossy 802.11
        fabric = SimFabric(network)
        server = RegistryServer(fabric.endpoint("hub", "registry"))
        client = RegistryClient(fabric.endpoint("leaf0", "c"),
                                server.transport.local_address,
                                request_timeout_s=0.3)
        results = []
        for i in range(20):
            client.register(make_description(f"s{i}", "cam"), lease_s=300,
                            auto_renew=False).on_settle(
                lambda p: results.append(p.fulfilled))
        network.sim.run_until(20.0)
        assert all(results) and len(results) == 20


class TestDistributedDiscovery:
    def test_multi_hop_lookup(self, chain):
        network, fabric = chain
        agents = {
            i: DistributedDiscovery(
                fabric.endpoint(f"n{i}", "disc"), ttl=5,
                collect_window_s=2.0, use_cache=False,
            )
            for i in range(5)
        }
        agents[4].advertise(make_description("far", "sensor", provider="n4:svc"))
        network.sim.run_until(0.5)
        lookup = agents[0].lookup(Query("sensor"))
        network.sim.run_until(5.0)
        assert [d.service_id for d in lookup.result()] == ["far"]

    def test_cache_answers_after_advertisement(self, chain):
        network, fabric = chain
        agents = {
            i: DistributedDiscovery(
                fabric.endpoint(f"n{i}", "disc"), ttl=5, collect_window_s=0.5,
            )
            for i in range(5)
        }
        agents[4].advertise(make_description("svc", "sensor", provider="n4:svc"))
        network.sim.run_until(2.0)
        assert any(d.service_id == "svc" for d in cached_services(agents[0]))

    def test_cache_expires(self, chain):
        network, fabric = chain
        listener = DistributedDiscovery(
            fabric.endpoint("n1", "disc"), advert_lease_s=3.0,
            advertise_interval_s=1000.0,
        )
        speaker = DistributedDiscovery(
            fabric.endpoint("n0", "disc"), advert_lease_s=3.0,
            advertise_interval_s=1000.0,
        )
        speaker.advertise(make_description("svc", "sensor", provider="n0:svc"))
        network.sim.run_until(1.0)
        assert cached_services(listener)
        network.sim.run_until(10.0)
        assert not cached_services(listener)

    def test_withdraw_stops_matching(self, ideal_star):
        network, fabric = ideal_star
        supplier = DistributedDiscovery(fabric.endpoint("leaf0", "disc"),
                                        collect_window_s=0.5, use_cache=False)
        consumer = DistributedDiscovery(fabric.endpoint("leaf1", "disc"),
                                        collect_window_s=0.5, use_cache=False)
        supplier.advertise(make_description("svc", "sensor", provider="leaf0:svc"))
        network.sim.run_until(0.5)
        supplier.withdraw("svc")
        lookup = consumer.lookup(Query("sensor"))
        network.sim.run_until(3.0)
        assert lookup.result() == []

    def test_service_discovered_event(self, ideal_star):
        network, fabric = ideal_star
        supplier = DistributedDiscovery(fabric.endpoint("leaf0", "disc"))
        listener = DistributedDiscovery(fabric.endpoint("leaf1", "disc"))
        discovered = []
        listener.events.on("service_discovered",
                           lambda d: discovered.append(d.service_id))
        supplier.advertise(make_description("new", "sensor", provider="leaf0:svc"))
        network.sim.run_until(1.0)
        assert discovered == ["new"]

    def test_message_counting(self, ideal_star):
        network, fabric = ideal_star
        agent = DistributedDiscovery(fabric.endpoint("leaf0", "disc"))
        agent.advertise(make_description("svc", "sensor", provider="leaf0:svc"))
        assert agent.messages_sent["advert"] == 1
        assert agent.total_messages_sent() == 1


class TestMirrorGroup:
    def test_replication_and_cross_mirror_lookup(self, ideal_star):
        network, fabric = ideal_star
        group = MirrorGroup([
            fabric.endpoint("leaf0", "reg"), fabric.endpoint("leaf1", "reg"),
        ])
        writer = group.client(fabric.endpoint("leaf2", "c"), mirror_index=0)
        writer.register(make_description("svc", "cam", provider="leaf2:svc"), lease_s=60)
        network.sim.run_until(1.0)
        assert group.consistent()
        assert total_registered(group) == 1
        reader = group.client(fabric.endpoint("leaf3", "c"), mirror_index=1)
        lookup = reader.lookup(Query("cam"))
        network.sim.run_until(2.0)
        assert [d.service_id for d in lookup.result()] == ["svc"]

    def test_unregister_replicates(self, ideal_star):
        network, fabric = ideal_star
        group = MirrorGroup([
            fabric.endpoint("leaf0", "reg"), fabric.endpoint("leaf1", "reg"),
        ])
        client = group.client(fabric.endpoint("leaf2", "c"), mirror_index=0)
        client.register(make_description("svc", "cam"), lease_s=60)
        network.sim.run_until(1.0)
        client.unregister("svc")
        network.sim.run_until(2.0)
        assert total_registered(group) == 0
        assert group.consistent()

    def test_a_sync_copy_is_applied_and_not_answered(self, ideal_star):
        """A peer used to ack every replicated copy to a server with no
        ``*_ack`` op: ``peers`` frames per mutation sent to be dropped."""
        network, fabric = ideal_star
        group = MirrorGroup([fabric.endpoint(f"leaf{i}", "reg")
                             for i in range(3)])
        client = group.client(fabric.endpoint("leaf3", "c"), mirror_index=0)
        steps = []
        for at, step in enumerate((
            lambda: client.register(make_description("svc", "cam"),
                                    lease_s=60, auto_renew=False),
            lambda: client._ask(
                {"op": "renew", "service_id": "svc", "lease_s": 60}),
            lambda: client.unregister("svc"),
        )):
            steps.append(step())
            network.sim.run_until(at + 1.0)
            assert total_registered(group) == (at < 2) and group.consistent()
        first, *peers = group.servers
        assert first.replications_sent == 6
        assert [peer.transport.sent_messages for peer in peers] == [0, 0]
        assert all(step.fulfilled for step in steps)
        # A peer still answers a request that is not a copy.
        direct = group.client(fabric.endpoint("leaf4", "c"), mirror_index=1)
        lookup = direct.lookup(Query("cam"))
        network.sim.run_until(4.0)
        assert lookup.result() == [] and peers[0].transport.sent_messages == 1

    def test_a_renewal_heals_a_peer_that_missed_the_register_copy(self, ideal_star):
        network, fabric = ideal_star
        group = MirrorGroup([fabric.endpoint("leaf0", "reg"),
                             fabric.endpoint("leaf1", "reg")])
        client = group.client(fabric.endpoint("leaf2", "c"), mirror_index=0)
        cut = network.medium.isolate(["leaf1"])
        client.register(make_description("svc", "cam"), lease_s=60,
                        auto_renew=False)
        network.sim.run_until(1.0)
        assert not group.consistent()
        network.medium.heal(cut)
        client._ask({"op": "renew", "service_id": "svc", "lease_s": 60})
        network.sim.run_until(2.0)
        assert group.consistent() and len(group.servers[1]) == 1


class TestAdaptiveDiscovery:
    def build(self, network, fabric, density):
        distributed = DistributedDiscovery(fabric.endpoint("leaf0", "disc"),
                                           collect_window_s=0.5)
        server = RegistryServer(fabric.endpoint("hub", "registry"))
        registry = RegistryClient(fabric.endpoint("leaf0", "reg"),
                                  server.transport.local_address)
        agent = AdaptiveDiscovery(
            distributed, registry,
            density_probe=lambda: density(),
        )
        return agent, server

    def test_dense_network_uses_registry(self, ideal_star):
        network, fabric = ideal_star
        agent, server = self.build(network, fabric, lambda: 10)
        assert agent.mode == "centralized"
        agent.advertise(make_description("svc", "cam", provider="leaf0:svc"))
        network.sim.run_until(1.0)
        assert len(server) == 1

    def test_sparse_network_uses_flooding(self, ideal_star):
        network, fabric = ideal_star
        agent, server = self.build(network, fabric, lambda: 2)
        assert agent.mode == "distributed"
        agent.advertise(make_description("svc", "cam", provider="leaf0:svc"))
        network.sim.run_until(1.0)
        assert len(server) == 0
        assert agent.distributed._local

    def test_mode_switch_republisheds(self, ideal_star):
        network, fabric = ideal_star
        density = {"value": 2}
        agent, server = self.build(network, fabric, lambda: density["value"])
        agent.advertise(make_description("svc", "cam", provider="leaf0:svc"))
        network.sim.run_until(0.5)
        assert len(server) == 0
        density["value"] = 10
        network.sim.run_until(6.0)  # past the first re-evaluation at 5 s
        assert agent.mode == "centralized"
        assert len(server) == 1
        assert agent.mode_switches >= 1

    def test_density_threshold_is_inclusive(self, ideal_star):
        network, fabric = ideal_star
        density = {"value": DENSITY_THRESHOLD - 0.5}
        agent, _server = self.build(network, fabric, lambda: density["value"])
        assert agent.mode == "distributed"
        density["value"] = DENSITY_THRESHOLD
        network.sim.run_until(REEVALUATE_INTERVAL_S + 0.1)
        assert agent.mode == "centralized"

    def test_mode_holds_until_the_next_reevaluation(self, ideal_star):
        network, fabric = ideal_star
        density = {"value": 2}
        agent, _server = self.build(network, fabric, lambda: density["value"])
        density["value"] = 10
        network.sim.run_until(REEVALUATE_INTERVAL_S - 0.1)
        assert agent.mode == "distributed"
        network.sim.run_until(REEVALUATE_INTERVAL_S + 0.1)
        assert agent.mode == "centralized"
        assert agent.mode_switches == 1

    def test_registry_is_dropped_at_the_failure_limit(self, ideal_star):
        network, fabric = ideal_star
        agent, _server = self.build(network, fabric, lambda: 10)
        for _ in range(REGISTRY_FAILURE_LIMIT - 1):
            agent._note_registry_failure()
        assert agent.mode == "centralized"
        agent._note_registry_failure()
        assert agent.mode == "distributed"

    def test_withdraw_in_both_modes(self):
        network = topology.star(4, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        server = RegistryServer(fabric.endpoint("hub", "registry"))
        distributed = DistributedDiscovery(fabric.endpoint("leaf0", "disc"),
                                           collect_window_s=0.5)
        registry = RegistryClient(fabric.endpoint("leaf0", "reg"),
                                  server.transport.local_address)
        agent = AdaptiveDiscovery(
            distributed, registry,
            density_probe=lambda: 10,  # centralized
        )
        agent.advertise(ServiceDescription("svc", "cam", "leaf0:svc"))
        network.sim.run_for(1.0)
        assert len(server) == 1
        agent.withdraw("svc")
        network.sim.run_for(1.0)
        assert len(server) == 0
        assert distributed._local == {}
