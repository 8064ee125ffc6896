"""Tests for the MiddlewareNode facade and the interop bridges."""

import pytest

from repro import MiddlewareNode, Query, SupplierQoS, TransactionKind, TransactionSpec
from repro.discovery.registry import RegistryServer
from repro.transactions.bridge import CodecGateway, PubSubTupleBridge, RpcEventBridge
from repro.interop.codec import get_codec
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.routing.linkstate import LinkStateRouter
from repro.transactions.pubsub import PubSubBroker, PubSubClient
from repro.transactions.rpc import RpcEndpoint
from repro.transactions.tuplespace import TupleSpaceClient, TupleSpaceServer
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


class TestCodecGateway:
    def test_bidirectional_translation(self):
        fabric = InMemoryFabric(latency_s=0.01)
        binary_side = fabric.endpoint("island", "app")
        sml_side = fabric.endpoint("enterprise", "app")
        gateway = CodecGateway(
            fabric.endpoint("gw", "a"), fabric.endpoint("gw", "b"),
            default_b=Address("enterprise", "app"),
            default_a=Address("island", "app"),
        )
        received = []
        sml_codec = get_codec("sml")
        binary_codec = get_codec("binary")
        sml_side.set_receiver(
            lambda src, data: received.append(("sml", sml_codec.decode(data)))
        )
        binary_side.set_receiver(
            lambda src, data: received.append(("binary", binary_codec.decode(data)))
        )
        binary_side.send(Address("gw", "a"), binary_codec.encode({"op": "hello"}))
        fabric.run()
        sml_side.send(Address("gw", "b"), sml_codec.encode({"op": "reply"}))
        fabric.run()
        assert received == [("sml", {"op": "hello"}), ("binary", {"op": "reply"})]
        assert gateway.forwarded_a_to_b == 1 and gateway.forwarded_b_to_a == 1

    def test_garbage_is_a_counted_drop_not_a_raise(self):
        fabric = InMemoryFabric(latency_s=0.01)
        island = fabric.endpoint("island", "app")
        enterprise = fabric.endpoint("enterprise", "app")
        gateway = CodecGateway(
            fabric.endpoint("gw", "a"), fabric.endpoint("gw", "b"),
            default_b=Address("enterprise", "app"),
        )
        sml, binary = get_codec("sml"), get_codec("binary")
        received = []
        enterprise.set_receiver(
            lambda src, data: received.append(sml.decode(data)))
        island.send(Address("gw", "a"), b"\xff\x00 not a frame")
        island.send(Address("gw", "a"), binary.encode([1, 2]))  # no dict
        island.send(Address("gw", "a"), binary.encode({"op": "hello"}))
        fabric.run()
        assert received == [{"op": "hello"}]
        assert gateway.malformed_frames == 2
        assert gateway.forwarded_a_to_b == 1 and gateway.dropped == 0

    def test_unrouted_traffic_dropped(self):
        fabric = InMemoryFabric()
        gateway = CodecGateway(fabric.endpoint("gw", "a"), fabric.endpoint("gw", "b"))
        sender = fabric.endpoint("x", "app")
        sender.send(Address("gw", "a"), get_codec("binary").encode({"m": 1}))
        fabric.run()
        assert gateway.dropped == 1

    def test_explicit_address_maps(self):
        fabric = InMemoryFabric(latency_s=0.005)
        binary = get_codec("binary")
        sml = get_codec("sml")
        gateway = CodecGateway(fabric.endpoint("gw", "a"),
                               fabric.endpoint("gw", "b"))
        gateway.map_a_to_b(Address("alice", "app"), Address("bob", "app"))
        gateway.map_b_to_a(Address("bob", "app"), Address("alice", "app"))
        alice = fabric.endpoint("alice", "app")
        bob = fabric.endpoint("bob", "app")
        seen = []
        bob.set_receiver(lambda src, data: seen.append(sml.decode(data)))
        alice.set_receiver(lambda src, data: seen.append(binary.decode(data)))
        alice.send(Address("gw", "a"), binary.encode({"n": 1}))
        fabric.run()
        bob.send(Address("gw", "b"), sml.encode({"n": 2}))
        fabric.run()
        assert seen == [{"n": 1}, {"n": 2}]
        assert gateway.dropped == 0


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

    def test_pubsub_to_tuplespace(self):
        fabric = InMemoryFabric(latency_s=0.01)
        broker = PubSubBroker(fabric.endpoint("broker", "ps"))
        space = TupleSpaceServer(fabric.endpoint("space", "ts"))
        bridge = PubSubTupleBridge(
            PubSubClient(fabric.endpoint("bridge", "ps"),
                         broker.transport.local_address),
            TupleSpaceClient(fabric.endpoint("bridge", "ts"),
                             space.transport.local_address),
            pattern="vitals.#",
        )
        fabric.run()
        publisher = PubSubClient(fabric.endpoint("pub", "ps"),
                                 broker.transport.local_address)
        publisher.publish("vitals.bp", 120)
        fabric.run()
        # Tuple-space consumer sees the event as a tuple.
        reader = TupleSpaceClient(fabric.endpoint("reader", "ts"),
                                  space.transport.local_address)
        take = reader.inp("event", "vitals.bp", None)
        fabric.run()
        assert take.result() == ["event", "vitals.bp", 120]
        assert bridge.bridged == 1
