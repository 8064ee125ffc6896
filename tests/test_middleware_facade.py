"""Tests for the MiddlewareNode facade and the RPC -> pub/sub bridge."""

from repro import MiddlewareNode, Query, SupplierQoS, TransactionKind, TransactionSpec
from repro.discovery.registry import RegistryServer
from repro.transactions.bridge import RpcEventBridge
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.routing.linkstate import LinkStateRouter
from repro.transactions.pubsub import PubSubBroker, PubSubClient
from repro.transactions.rpc import RpcEndpoint
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric
from repro.transport.simnet import SimFabric


def star_fabric(n=5):
    network = topology.star(n, radius=40, radio_profile=IDEAL_RADIO)
    return network, SimFabric(network)


class TestMiddlewareNodeDistributed:
    def test_provide_find_call(self):
        network, fabric = star_fabric()
        supplier = MiddlewareNode(fabric, "leaf0", collect_window_s=0.5)
        consumer = MiddlewareNode(fabric, "hub", collect_window_s=0.5)
        supplier.provide("t1", "thermometer", {"read": lambda: 21.5},
                         qos=SupplierQoS(reliability=0.95))
        network.sim.run_for(0.5)
        found = consumer.find(Query("thermometer"))
        network.sim.run_for(2.0)
        assert [d.service_id for d in found.result()] == ["t1"]
        call = consumer.call(found.result()[0].provider, "read")
        network.sim.run_for(1.0)
        assert call.result() == 21.5

    def test_establish_on_demand(self):
        network, fabric = star_fabric()
        supplier = MiddlewareNode(fabric, "leaf0", collect_window_s=0.5)
        consumer = MiddlewareNode(fabric, "hub", collect_window_s=0.5)
        supplier.provide("t1", "thermometer", {"read": lambda: 19.0})
        network.sim.run_for(0.5)
        promise = consumer.establish(Query("thermometer"))
        network.sim.run_for(4.0)
        assert promise.result().deliveries == 1

    def test_establish_continuous_stream(self):
        network, fabric = star_fabric()
        supplier = MiddlewareNode(fabric, "leaf0", collect_window_s=0.5)
        consumer = MiddlewareNode(fabric, "hub", collect_window_s=0.5)
        supplier.provide("t1", "thermometer", {"read": lambda: 20.0})
        network.sim.run_for(0.5)
        readings = []
        promise = consumer.establish(
            Query("thermometer"),
            TransactionSpec(TransactionKind.CONTINUOUS, interval_s=1.0),
            on_data=lambda value, latency: readings.append(value),
        )
        network.sim.run_for(6.0)
        assert len(readings) >= 4
        consumer.stop_transaction(promise.result())

    def test_withdraw_hides_service(self):
        network, fabric = star_fabric()
        supplier = MiddlewareNode(fabric, "leaf0", collect_window_s=0.5)
        consumer = MiddlewareNode(fabric, "hub", collect_window_s=0.5)
        supplier.provide("t1", "thermometer", {"read": lambda: 1.0})
        network.sim.run_for(0.5)
        supplier.withdraw("t1")
        found = consumer.find(Query("thermometer"))
        network.sim.run_for(2.0)
        assert found.result() == []

    def test_position_auto_attached(self):
        network, fabric = star_fabric()
        supplier = MiddlewareNode(fabric, "leaf0")
        description = supplier.provide("t1", "thermometer", {"read": lambda: 1.0})
        expected = network.node("leaf0").position
        assert description.position == (expected.x, expected.y)


class TestMiddlewareNodeCentralized:
    def test_registry_mode(self):
        network, fabric = star_fabric()
        server = RegistryServer(fabric.endpoint("hub", "registry"))
        supplier = MiddlewareNode(fabric, "leaf0",
                                  registry=server.transport.local_address)
        consumer = MiddlewareNode(fabric, "leaf1",
                                  registry=server.transport.local_address)
        supplier.provide("cam1", "camera", {"snap": lambda: "jpeg"})
        network.sim.run_for(1.0)
        found = consumer.find(Query("camera"))
        network.sim.run_for(2.0)
        assert [d.service_id for d in found.result()] == ["cam1"]


class TestMiddlewareNodeRouted:
    def test_multi_hop_everything(self):
        network = topology.linear_chain(4, spacing=60)
        fabric = SimFabric(network)
        factory = lambda nid: LinkStateRouter(network, nid)
        # The middleware runs on every node; intermediate nodes relay both
        # discovery floods and routed unicasts.
        nodes = {
            node_id: MiddlewareNode(fabric, node_id, router_factory=factory,
                                    collect_window_s=1.0, discovery_ttl=6)
            for node_id in network.node_ids()
        }
        supplier, consumer = nodes["n3"], nodes["n0"]
        supplier.provide("far", "sensor", {"read": lambda: 7})
        network.sim.run_for(1.0)
        found = consumer.find(Query("sensor"))
        network.sim.run_for(3.0)
        assert [d.service_id for d in found.result()] == ["far"]
        # RPC crosses three hops via the routing layer.
        call = consumer.call("n3:svc", "read")
        network.sim.run_for(2.0)
        assert call.result() == 7


class TestParadigmBridges:
    def test_rpc_to_pubsub(self):
        fabric = InMemoryFabric(latency_s=0.01)
        broker = PubSubBroker(fabric.endpoint("broker", "ps"))
        bridge_rpc = RpcEndpoint(fabric.endpoint("bridge", "rpc"))
        bridge_ps = PubSubClient(fabric.endpoint("bridge", "ps"),
                                 broker.transport.local_address)
        bridge = RpcEventBridge(bridge_rpc, bridge_ps)
        # A pure pub/sub subscriber.
        subscriber = PubSubClient(fabric.endpoint("sub", "ps"),
                                  broker.transport.local_address)
        events = []
        subscriber.subscribe("alerts.#", lambda t, e: events.append((t, e)))
        fabric.run()
        # A pure RPC client publishes through the bridge.
        caller = RpcEndpoint(fabric.endpoint("caller", "rpc"))
        call = caller.call(Address("bridge", "rpc"), "publish",
                           {"topic": "alerts.fire", "event": {"level": 2}})
        fabric.run()
        assert call.result() is True
        assert events == [("alerts.fire", {"level": 2})]
