"""Integration tests: multiple subsystems working end to end.

Each scenario here is a miniature of one of the paper's motivating
deployments — the pieces are only allowed to talk through their public
APIs, exactly as an application would use them.
"""

import pytest

from repro import (
    MiddlewareNode,
    Milan,
    Query,
    SupplierQoS,
    TransactionKind,
    TransactionSpec,
    health_monitor_policy,
)
from repro.core.plugins import NetworkContext, NetworkPlugin
from repro.core.sensors import sensor_from_description
from repro.discovery.registry import RegistryServer
from repro.netsim import topology
from repro.netsim.energy import Battery
from repro.netsim.failures import FailureInjector
from repro.netsim.medium import IDEAL_RADIO
from repro.qos.spec import ConsumerQoS
from repro.recovery.store import TransactionalStore
from repro.recovery.wal import StableStorage
from repro.routing.energyaware import EnergyAwareRouter
from repro.routing.linkstate import LinkStateRouter
from repro.transport.base import Address
from repro.transport.simnet import SimFabric


class TestHealthMonitoringEndToEnd:
    """The paper's Section 3.1 example: blood-pressure sensors feed an
    analyzer via the full middleware stack, with MiLAN choosing sensors."""

    def test_discovered_sensors_drive_milan(self):
        network = topology.star(6, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        nodes = {}
        sensor_specs = [
            ("bp-cuff", {"var:blood_pressure": "0.95", "power_w": "0.02",
                         "battery_capacity_j": "10"}),
            ("bp-wrist", {"var:blood_pressure": "0.75", "power_w": "0.008",
                          "battery_capacity_j": "10"}),
            ("ecg", {"var:heart_rate": "0.95", "var:blood_pressure": "0.3",
                     "power_w": "0.03", "battery_capacity_j": "12"}),
            ("ppg", {"var:heart_rate": "0.8", "var:oxygen_saturation": "0.9",
                     "power_w": "0.01", "battery_capacity_j": "8"}),
            ("spo2", {"var:oxygen_saturation": "0.85", "power_w": "0.012",
                      "battery_capacity_j": "9"}),
        ]
        for i, (sensor_id, properties) in enumerate(sensor_specs):
            node = MiddlewareNode(fabric, f"leaf{i}", collect_window_s=0.5)
            node.provide(
                sensor_id, "vital-sensor", {"read": lambda sid=sensor_id: sid},
                qos=SupplierQoS(
                    battery_powered=True, battery_fraction=1.0,
                    properties=properties,
                ),
            )
            nodes[sensor_id] = node
        analyzer = MiddlewareNode(fabric, "hub", collect_window_s=0.5)
        network.sim.run_for(1.0)

        found = analyzer.find(Query("vital-sensor", max_results=20))
        network.sim.run_for(2.0)
        descriptions = found.result()
        assert len(descriptions) == 5

        milan = Milan(health_monitor_policy())
        for description in descriptions:
            milan.add_sensor(sensor_from_description(description))
        assert milan.application_satisfied()
        active_rest = set(milan.active_sensor_ids())
        milan.observe({"blood_pressure": 190})
        assert milan.state == "distress"
        # Only the selected sensors are actually streamed from.
        for sensor_id in milan.active_sensor_ids():
            description = next(d for d in descriptions if d.service_id == sensor_id)
            call = analyzer.call(description.provider, "read")
            network.sim.run_for(1.0)
            assert call.result() == sensor_id
        assert len(milan.active_sensor_ids()) >= len(active_rest)


class TestWsnLifetimeScenario:
    """Multi-hop WSN: energy-aware routing + failure of relays."""

    def test_stream_survives_relay_death_with_rerouting(self):
        network = topology.grid(3, 3, spacing=55,
                                battery_factory=lambda nid: Battery(capacity=5.0))
        fabric = SimFabric(network)
        factory = lambda nid: LinkStateRouter(network, nid, refresh_interval_s=0.5)
        nodes = {
            node_id: MiddlewareNode(fabric, node_id, router_factory=factory,
                                    collect_window_s=0.5, discovery_ttl=8)
            for node_id in network.node_ids()
        }
        nodes["n2_2"].provide("corner-sensor", "sensor", {"read": lambda: 1})
        network.sim.run_for(1.0)
        readings = []
        promise = nodes["n0_0"].establish(
            Query("sensor"),
            TransactionSpec(TransactionKind.CONTINUOUS, interval_s=1.0),
            on_data=lambda value, latency: readings.append(value),
        )
        network.sim.run_for(5.0)
        assert promise.fulfilled
        count_before = len(readings)
        assert count_before >= 3
        # Kill a central relay; link-state refresh must route around it.
        network.node("n1_1").crash()
        network.sim.run_for(10.0)
        assert len(readings) > count_before

    def test_energy_aware_routing_spreads_load(self):
        # Batteries sized so the workload visibly drains relays: the router
        # must rotate traffic off tired nodes for anything to survive.
        network = topology.grid(3, 3, spacing=55,
                                battery_factory=lambda nid: Battery(capacity=0.02))
        fabric = SimFabric(network)
        agents = {}
        from repro.routing.base import build_routed_network

        agents = build_routed_network(
            fabric, lambda nid: EnergyAwareRouter(network, nid,
                                                  refresh_interval_s=0.2)
        )
        source = agents["n0_0"].open_port("data")
        sink = agents["n2_2"].open_port("data")
        received = []
        sink.set_receiver(lambda src, data: received.append(data))
        for i in range(60):
            network.sim.schedule(i * 0.5, lambda i=i: source.send(
                Address("n2_2", "data"), bytes(64)))
        network.sim.run_for(40.0)
        # Most packets arrive before the (heavily transmitting) source dies.
        assert len(received) >= 45
        # Interior candidates share the relay load: several interior nodes
        # must have forwarded traffic rather than one fixed path burning out.
        interior = ["n0_1", "n1_0", "n1_1", "n1_2", "n2_1", "n0_2", "n2_0"]
        forwarders = [n for n in interior if agents[n].forwarded > 0]
        assert len(forwarders) >= 3


class TestChurnResilience:
    """Discovery + transactions under node churn (failure injection)."""

    def test_consumers_keep_finding_services_through_churn(self):
        network = topology.star(6, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        registry = RegistryServer(fabric.endpoint("hub", "registry"))
        suppliers = []
        for i in range(4):
            node = MiddlewareNode(fabric, f"leaf{i}",
                                  registry=registry.transport.local_address)
            node.provide(f"svc{i}", "worker", {"work": lambda: "done"},
                         lease_s=3.0)
            suppliers.append(node)
        consumer = MiddlewareNode(fabric, "leaf5",
                                  registry=registry.transport.local_address)
        injector = FailureInjector(network, seed=7)
        injector.crash_and_recover("leaf0", crash_at=5.0, downtime=10.0)
        injector.crash_and_recover("leaf1", crash_at=8.0, downtime=10.0)
        network.sim.run_until(12.0)
        # Crashed suppliers' leases expired; the rest are findable.
        lookup = consumer.find(Query("worker", max_results=10))
        network.sim.run_until(14.0)
        found_ids = {d.service_id for d in lookup.result()}
        assert "svc2" in found_ids and "svc3" in found_ids
        assert "svc0" not in found_ids and "svc1" not in found_ids


class TestDurableSensorLog:
    """Recovery + middleware: readings persisted transactionally survive a
    crash of the logging node."""

    def test_committed_readings_survive(self):
        network = topology.star(3, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        storage = StableStorage()
        store = TransactionalStore(storage, checkpoint_interval_ops=10)
        sensor = MiddlewareNode(fabric, "leaf0", collect_window_s=0.5)
        ticker = {"value": 100}
        sensor.provide("t", "thermometer",
                       {"read": lambda: ticker.__setitem__("value", ticker["value"] + 1)
                        or ticker["value"]})
        logger_node = MiddlewareNode(fabric, "hub", collect_window_s=0.5)
        network.sim.run_for(1.0)

        def persist(value, latency):
            txid = store.begin()
            store.put(txid, f"reading-{value}", value)
            store.commit(txid)

        promise = logger_node.establish(
            Query("thermometer"),
            TransactionSpec(TransactionKind.CONTINUOUS, interval_s=1.0),
            on_data=persist,
        )
        network.sim.run_for(6.0)
        persisted = len(store.snapshot())
        assert persisted >= 4
        store.crash()
        recovered = TransactionalStore(storage, checkpoint_interval_ops=10)
        assert len(recovered.snapshot()) == persisted


class SinkReachability:
    """A multi-hop plugin: every selected sensor's node must reach the sink
    over the live topology."""

    name = "reachability"

    def accepts(self, sensor_set, context):
        reachable = context.network.reachable_from(context.sink_node_id)
        return all(context.sensors[sid].node_id in reachable
                   for sid in sensor_set)


class TestMilanWithLiveTopology:
    """MiLAN + a reachability plugin over a live network: partition makes a
    sensor network-infeasible, and MiLAN reconfigures around it."""

    def test_partition_forces_reselection(self):
        network = topology.linear_chain(4, spacing=60)
        from repro.core.sensors import SensorInfo

        sensors = {
            "near": SensorInfo("near", {"v": 0.8}, node_id="n1",
                               active_power_w=0.01, energy_j=10.0),
            "far": SensorInfo("far", {"v": 0.9}, node_id="n3",
                              active_power_w=0.01, energy_j=10.0),
        }
        from repro.core.policy import ApplicationPolicy
        from repro.core.requirements import VariableRequirements

        policy = ApplicationPolicy(
            "p", VariableRequirements().require("on", "v", 0.75),
            initial_state="on", selection="max_reliability",
        )
        context = NetworkContext(sensors=dict(sensors), network=network,
                                 sink_node_id="n0")
        plugin = SinkReachability()
        assert isinstance(plugin, NetworkPlugin)
        milan = Milan(policy, plugins=[plugin], context=context)
        milan.reconfigure()
        assert milan.active_sensor_ids() == frozenset(["far"])  # higher reliability
        network.node("n2").crash()  # n3 unreachable from n0 now
        assert plugin.accepts(frozenset(["near"]), context)
        assert not plugin.accepts(frozenset(["far"]), context)
        configuration = milan.reconfigure()
        assert milan.active_sensor_ids() == frozenset(["near"])
