"""Failure-injection tests across subsystem boundaries.

Each test breaks something specific — registry down mid-session, broker
crash, partition during a stream — and asserts the documented fallback
behaviour (not just "no crash").
"""

import pytest

from repro.discovery.adaptive import AdaptiveDiscovery
from repro.errors import ConfigurationError
from repro.discovery.description import ServiceDescription
from repro.discovery.distributed import DistributedDiscovery
from repro.discovery.matching import Query
from repro.discovery.registry import RegistryClient, RegistryServer
from repro.netsim import topology
from repro.netsim.failures import FailureInjector
from repro.netsim.medium import IDEAL_RADIO
from repro.qos.spec import SupplierQoS
from repro.transactions.manager import TransactionManager
from repro.transactions.messaging import MessageBroker, MessagingClient
from repro.transactions.rpc import RpcEndpoint
from repro.transactions.transaction import TransactionKind, TransactionSpec
from repro.transport.simnet import SimFabric


class TestAdaptiveFallback:
    def test_registry_death_forces_distributed_mode(self):
        network = topology.star(5, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        server = RegistryServer(fabric.endpoint("hub", "registry"))
        distributed = DistributedDiscovery(fabric.endpoint("leaf0", "disc"),
                                           collect_window_s=0.5)
        registry = RegistryClient(fabric.endpoint("leaf0", "reg"),
                                  server.transport.local_address,
                                  request_timeout_s=0.3)
        agent = AdaptiveDiscovery(
            distributed, registry,
            density_probe=lambda: 10,  # dense: prefers centralized
        )
        assert agent.mode == "centralized"
        # A supplier advertises via flooding so the fallback can find it.
        supplier = DistributedDiscovery(fabric.endpoint("leaf1", "disc"),
                                        collect_window_s=0.5)
        supplier.advertise(ServiceDescription("svc", "cam", "leaf1:svc"))
        network.sim.run_for(1.0)
        # Registry dies; centralized lookups time out and fall back.
        network.node("hub").crash()
        first = agent.lookup(Query("cam"))
        network.sim.run_for(5.0)
        assert first.fulfilled
        assert [d.service_id for d in first.result()] == ["svc"]
        # A second timed-out lookup crosses the failure limit: the agent
        # stops even trying the registry.
        second = agent.lookup(Query("cam"))
        network.sim.run_for(5.0)
        assert second.fulfilled
        assert agent.mode == "distributed"

    def test_registry_recovery_restores_centralized(self):
        network = topology.star(4, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        server = RegistryServer(fabric.endpoint("hub", "registry"))
        distributed = DistributedDiscovery(fabric.endpoint("leaf0", "disc"))
        registry = RegistryClient(fabric.endpoint("leaf0", "reg"),
                                  server.transport.local_address,
                                  request_timeout_s=0.3)
        agent = AdaptiveDiscovery(
            distributed, registry,
            density_probe=lambda: 10,
        )
        agent._note_registry_failure()
        agent._note_registry_failure()
        network.sim.run_for(1.0)
        assert agent.mode == "distributed"
        agent._registry_failures = 0  # an out-of-band health check passed
        agent._evaluate()
        assert agent.mode == "centralized"


class TestBrokerCrash:
    def test_messages_lost_with_broker_are_bounded(self):
        network = topology.star(4, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        broker = MessageBroker(fabric.endpoint("hub", "mq"))
        received = []
        consumer = MessagingClient(fabric.endpoint("leaf0", "mq"),
                                   broker.transport.local_address)
        consumer.subscribe("jobs", received.append)
        producer = MessagingClient(fabric.endpoint("leaf1", "mq"),
                                   broker.transport.local_address)
        network.sim.run_for(1.0)
        for i in range(5):
            producer.put("jobs", i)
        network.sim.run_for(2.0)
        assert received == [0, 1, 2, 3, 4]
        # Broker crashes; messages sent during the outage are lost (MOM with
        # a dead broker cannot help), but nothing hangs or errors.
        network.node("hub").crash()
        for i in range(5, 8):
            producer.put("jobs", i)
        network.sim.run_for(2.0)
        assert received == [0, 1, 2, 3, 4]
        # Broker restarts (volatile queues empty): new messages flow after
        # the consumer resubscribes.
        network.node("hub").recover()
        consumer.subscribe("jobs", received.append)
        network.sim.run_for(1.0)
        producer.put("jobs", 99)
        network.sim.run_for(2.0)
        assert 99 in received


class TestPartitionDuringStream:
    def test_stream_pauses_and_resumes_across_partition(self):
        network = topology.star(4, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        registry = RegistryServer(fabric.endpoint("hub", "registry"))
        supplier_rpc = RpcEndpoint(fabric.endpoint("leaf0", "svc"))
        supplier_rpc.expose("read", lambda **kw: 7)
        RegistryClient(fabric.endpoint("leaf0", "reg"),
                       registry.transport.local_address).register(
            ServiceDescription("only", "sensor", "leaf0:svc",
                               qos=SupplierQoS(reliability=0.99)), lease_s=300)
        network.sim.run_for(1.0)
        consumer_rpc = RpcEndpoint(fabric.endpoint("leaf1", "svc"))
        discovery = RegistryClient(fabric.endpoint("leaf1", "disc"),
                                   registry.transport.local_address)
        manager = TransactionManager(consumer_rpc, discovery,
                                     call_timeout_s=0.5)
        readings = []
        promise = manager.establish(
            Query("sensor"),
            TransactionSpec(TransactionKind.CONTINUOUS, interval_s=1.0),
            on_data=lambda value, latency: readings.append(network.sim.now()),
        )
        injector = FailureInjector(network)
        # Shorter than FAILURE_THRESHOLD calls: the stream keeps its
        # supplier instead of transferring.
        injector.partition_at(5.0, ["leaf0"], duration=1.5)
        network.sim.run_until(20.0)
        transaction = promise.result()
        assert transaction.state.value == "active"
        # No deliveries during the partition window, flow on both sides.
        in_partition = [t for t in readings if 5.5 <= t <= 6.5]
        before = [t for t in readings if t < 5.0]
        after = [t for t in readings if t > 7.0]
        assert in_partition == []
        assert before and after
        assert transaction.failures > 0


class TestInjectorSemantics:
    """Regression tests for the injector's composition guarantees:
    atomic zero-downtime blips, nested overlapping outages, and the
    double-recover guard."""

    def test_zero_downtime_blip_is_atomic(self):
        network = topology.star(3, radius=40, radio_profile=IDEAL_RADIO)
        injector = FailureInjector(network)
        injector.crash_and_recover("leaf0", 1.0, downtime=0.0)
        network.sim.run_until(2.0)
        assert network.node("leaf0").alive
        events = [(f.kind, f.at) for f in injector.log]
        assert events == [("crash", 1.0), ("recover", 1.0)]
        assert not any(f.detail == "spurious" for f in injector.log)

    def test_negative_downtime_rejected(self):
        network = topology.star(3, radius=40, radio_profile=IDEAL_RADIO)
        injector = FailureInjector(network)
        with pytest.raises(ConfigurationError):
            injector.crash_and_recover("leaf0", 1.0, downtime=-0.5)

    def test_overlapping_outages_nest(self):
        network = topology.star(3, radius=40, radio_profile=IDEAL_RADIO)
        injector = FailureInjector(network)
        injector.crash_and_recover("leaf0", 1.0, downtime=5.0)  # down 1..6
        injector.crash_and_recover("leaf0", 2.0, downtime=2.0)  # down 2..4
        network.sim.run_until(5.0)
        # The inner recovery at t=4 must not resurrect the node while the
        # outer outage still holds it down.
        assert not network.node("leaf0").alive
        network.sim.run_until(7.0)
        assert network.node("leaf0").alive
        details = [f.detail for f in injector.log]
        assert "nested" in details
        assert "spurious" not in details

    def test_spurious_recover_is_a_noop(self):
        network = topology.star(3, radius=40, radio_profile=IDEAL_RADIO)
        injector = FailureInjector(network)
        injector.recover_at(1.0, "leaf0")
        network.sim.run_until(2.0)
        assert network.node("leaf0").alive
        assert [f.detail for f in injector.log] == ["spurious"]

    def test_partition_filters_reachability_without_teleporting(self):
        network = topology.star(4, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        hub = fabric.endpoint("hub", "p")
        leaf0 = fabric.endpoint("leaf0", "p")
        leaf1 = fabric.endpoint("leaf1", "p")
        got = []
        hub.set_receiver(lambda src, data: got.append(data))
        before = {n: network.node(n).position for n in ("hub", "leaf0", "leaf1")}

        injector = FailureInjector(network)
        injector.partition_at(1.0, ["leaf0"], duration=2.0)
        network.sim.run_until(1.5)
        assert network.medium.partitioned("leaf0", "hub")
        assert not network.medium.partitioned("leaf1", "hub")
        # Positions are untouched: the partition is a reachability filter.
        for node_id, position in before.items():
            assert network.node(node_id).position == position

        leaf0.send(hub.local_address, b"cut")
        leaf1.send(hub.local_address, b"through")
        network.sim.run_until(2.5)
        assert got == [b"through"]
        assert network.medium.drops_partitioned >= 1

        network.sim.run_until(3.5)
        assert not network.medium.partitioned("leaf0", "hub")
        leaf0.send(hub.local_address, b"healed")
        network.sim.run_until(4.5)
        assert got == [b"through", b"healed"]

    def test_mobility_keeps_moving_through_partition(self):
        from repro.netsim.mobility import LinearMobility

        network = topology.star(3, radius=40, radio_profile=IDEAL_RADIO)
        start = network.node("leaf0").position
        network.node("leaf0").set_mobility(
            LinearMobility(start, velocity=(1.0, 0.0), start_time=0.0)
        )
        injector = FailureInjector(network)
        injector.partition_at(1.0, ["leaf0"], duration=2.0)

        network.sim.run_until(2.0)
        # Still partitioned even though the node keeps moving: mobility does
        # not silently heal a reachability partition.
        assert network.medium.partitioned("leaf0", "hub")
        assert network.node("leaf0").position.x == pytest.approx(start.x + 2.0)

        network.sim.run_until(4.0)
        # Healing keeps the mobility-computed position, not a stale snapshot.
        assert not network.medium.partitioned("leaf0", "hub")
        assert network.node("leaf0").position.x == pytest.approx(start.x + 4.0)
        assert network.node("leaf0").mobility is not None

    def test_partitions_compose(self):
        network = topology.star(4, radius=40, radio_profile=IDEAL_RADIO)
        injector = FailureInjector(network)
        injector.partition_at(1.0, ["leaf0"], duration=3.0)            # 1..4
        injector.partition_at(2.0, ["leaf0", "leaf1"], duration=3.0)   # 2..5
        network.sim.run_until(4.5)
        # First partition healed, second still isolates the pair.
        assert network.medium.partitioned("leaf0", "hub")
        assert network.medium.partitioned("leaf1", "hub")
        assert not network.medium.partitioned("leaf0", "leaf1")
        network.sim.run_until(5.5)
        assert not network.medium.partitioned("leaf0", "hub")
        assert not network.medium.partitioned("leaf1", "hub")

    def test_degrade_windows_compose_additively_and_unwind(self):
        network = topology.star(3, radius=40, radio_profile=IDEAL_RADIO)
        medium = network.medium
        injector = FailureInjector(network)
        injector.degrade_at(1.0, 4.0, extra_loss=0.1, extra_latency_s=0.01)
        injector.degrade_at(2.0, 1.0, extra_loss=0.2)
        network.sim.run_until(2.5)
        assert medium.extra_loss_probability == pytest.approx(0.3)
        assert medium.extra_latency_s == pytest.approx(0.01)
        network.sim.run_until(3.5)
        assert medium.extra_loss_probability == pytest.approx(0.1)
        network.sim.run_until(5.5)
        assert medium.extra_loss_probability == pytest.approx(0.0)
        assert medium.extra_latency_s == pytest.approx(0.0)

    def test_corruption_window_counts_and_drops(self):
        from repro.transport.reliable import ReliabilityParams, ReliableTransport

        network = topology.star(3, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        params = ReliabilityParams(ack_timeout_s=0.2, max_retries=8)
        sender = ReliableTransport(fabric.endpoint("hub", "data"), params)
        receiver = ReliableTransport(fabric.endpoint("leaf0", "data"), params)
        got = []
        receiver.set_receiver(lambda src, data: got.append(data))

        injector = FailureInjector(network)
        corruptor = injector.corrupt_frames_at(
            1.0, 2.0, probability=1.0, truncate_fraction=1.0
        )

        def send_burst():
            for i in range(10):
                sender.send(receiver.local_address,
                            b"payload-%02d" % i + b"x" * 16)

        network.sim.schedule_at(1.5, send_burst)
        network.sim.run_until(20.0)

        # Truncation happened, short frames were counted and dropped (not
        # raised through the event loop), and every sequence number was
        # still delivered exactly once thanks to retransmission after the
        # window closed.
        assert corruptor.truncated > 0
        assert receiver.malformed_frames > 0
        assert len(got) == 10
        assert len(sender._pending) == 0

        # Clean delivery after the corruptor is uninstalled.
        sender.send(receiver.local_address, b"after-heal")
        network.sim.run_for(2.0)
        assert got[-1] == b"after-heal"
