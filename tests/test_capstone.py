"""Capstone: a large deployment exercising most subsystems at once.

100 nodes in a random geometric field, middleware on every node, a mix of
suppliers and consumers, churn — the kind of run a downstream adopter would
do first. Kept under ~20 s of wall time.
"""

import pytest

from repro import MiddlewareNode, Query, SupplierQoS, TransactionKind, TransactionSpec
from repro.discovery.registry import RegistryServer
from repro.monitoring import SystemEventBus
from repro.netsim import topology
from repro.netsim.failures import FailureInjector
from repro.netsim.medium import RadioProfile
from repro.scheduling.handoff import HandoffManager
from repro.transactions.manager import TransactionManager
from repro.transactions.rpc import RpcEndpoint
from repro.transport.simnet import SimFabric
from tests.netsim_fixtures import random_geometric

#: Dense-enough radio so a 100-node field in 400x400 m stays connected.
CAPSTONE_RADIO = RadioProfile(
    name="capstone", bandwidth_bps=11e6, range_m=120.0,
    base_latency_s=0.001, loss_probability=0.005, contention_window_s=0.001,
)


class TestCapstoneDeployment:
    def test_hundred_node_city(self):
        from repro.routing.base import RoutingAgent
        from repro.routing.linkstate import LinkStateRouter

        network = random_geometric(
            100, area=(400.0, 400.0), radio_profile=CAPSTONE_RADIO, seed=11,
        )
        fabric = SimFabric(network)
        bus = SystemEventBus()
        bus.watch_network(network)

        supplier_ids = [f"n{i}" for i in range(1, 11)]
        consumer_ids = [f"n{i}" for i in range(11, 15)]
        participants = set(supplier_ids) | set(consumer_ids)
        router_factory = lambda nid: LinkStateRouter(network, nid,
                                                     refresh_interval_s=1.0)
        # Registry behind a routed port on n0 so multi-hop replies work.
        registry_agent = RoutingAgent(fabric, "n0", router_factory("n0"))
        registry = RegistryServer(registry_agent.open_port("registry"))
        bus.watch_registry(registry)
        registry_address = registry.transport.local_address
        # Non-participant nodes still forward traffic.
        for node_id in network.node_ids():
            if node_id != "n0" and node_id not in participants:
                RoutingAgent(fabric, node_id, router_factory(node_id))

        nodes = {}
        for i, node_id in enumerate(supplier_ids):
            node = MiddlewareNode(fabric, node_id, registry=registry_address,
                                  router_factory=router_factory)
            node.provide(
                f"svc-{i}", "worker", {"work": lambda i=i: i},
                qos=SupplierQoS(reliability=0.9 + 0.009 * i),
                lease_s=5.0,
            )
            nodes[node_id] = node
        consumers = {
            node_id: MiddlewareNode(fabric, node_id, registry=registry_address,
                                    router_factory=router_factory)
            for node_id in consumer_ids
        }
        network.sim.run_for(2.0)
        assert len(registry) == 10  # every supplier registered multi-hop

        # Every consumer finds suppliers and runs a stream.
        transactions = []
        deliveries = []
        for node_id, consumer in consumers.items():
            promise = consumer.establish(
                Query("worker"),
                TransactionSpec(TransactionKind.CONTINUOUS, operation="work",
                                interval_s=1.0),
                on_data=lambda value, latency: deliveries.append(value),
            )
            transactions.append(promise)
        network.sim.run_for(5.0)
        assert all(p.fulfilled for p in transactions)
        assert len(deliveries) >= 12  # 4 streams x >=3 ticks

        # Churn: a third of the suppliers bounce.
        injector = FailureInjector(network, seed=3)
        for node_id in supplier_ids[:3]:
            injector.crash_and_recover(node_id, crash_at=network.sim.now() + 1.0,
                                       downtime=6.0)
        count_before = len(deliveries)
        network.sim.run_for(20.0)
        # Streams keep delivering through the churn (transfer or luck).
        assert len(deliveries) > count_before + 20
        live_states = {p.result().state.value for p in transactions}
        assert live_states <= {"active"}
        # The bus saw the churn.
        assert len(bus.events_matching("node.crashed")) == 3
        assert len(bus.events_matching("node.recovered")) == 3

    def test_handoff_events_bracket_the_transfer(self):
        """HandoffManager integration: the departing supplier's transaction
        is announced, transferred to the one that stays, and completed."""
        from repro.discovery.description import ServiceDescription
        from repro.discovery.registry import RegistryClient
        from repro.netsim.mobility import LinearMobility
        from repro.util.geometry import Point

        network = topology.star(3, radius=30, seed=1)
        fabric = SimFabric(network)
        network.node("leaf0").set_mobility(
            LinearMobility(Point(30, 0), velocity=(6.0, 0.0))
        )
        registry = RegistryServer(fabric.endpoint("hub", "registry"))
        mobile = RpcEndpoint(fabric.endpoint("leaf0", "svc"))
        mobile.expose("read", lambda **kw: "m")
        static = RpcEndpoint(fabric.endpoint("leaf1", "svc"))
        static.expose("read", lambda **kw: "s")
        RegistryClient(fabric.endpoint("leaf0", "reg"),
                       registry.transport.local_address).register(
            ServiceDescription("mobile", "sensor", "leaf0:svc",
                               qos=SupplierQoS(reliability=0.99)), lease_s=300)
        RegistryClient(fabric.endpoint("leaf1", "reg"),
                       registry.transport.local_address).register(
            ServiceDescription("static", "sensor", "leaf1:svc",
                               qos=SupplierQoS(reliability=0.9)), lease_s=300)
        network.sim.run_until(1.0)
        consumer = RpcEndpoint(fabric.endpoint("hub", "svc"))
        discovery = RegistryClient(fabric.endpoint("hub", "disc"),
                                   registry.transport.local_address)
        manager = TransactionManager(consumer, discovery, call_timeout_s=0.5)
        handoff = HandoffManager(network, manager, "hub", warn_fraction=0.7,
                                 check_interval_s=0.5)
        events = []
        handoff.events.on("handoff_started",
                          lambda t: events.append(("start", t.transaction_id)))
        handoff.events.on("handoff_completed",
                          lambda t, old: events.append(("done", old)))
        promise = manager.establish(
            Query("sensor"),
            TransactionSpec(TransactionKind.CONTINUOUS, interval_s=0.5),
        )
        network.sim.run_until(3.0)
        transaction = promise.result()
        # Mobile node hits 70 m (0.7 x 100 m) at t = (70-30)/6 ≈ 6.7 s.
        network.sim.run_until(12.0)
        assert events == [("start", transaction.transaction_id),
                          ("done", "mobile")]
        assert transaction.supplier.service_id == "static"
