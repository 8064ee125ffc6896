"""Tests for the system event bus (§3.10 event management)."""

import pytest

from repro.core.milan import Milan
from repro.core.policy import health_monitor_policy
from repro.core.sensors import SensorInfo
from repro.discovery.description import ServiceDescription
from repro.discovery.registry import RegistryClient, RegistryServer
from repro.monitoring import SystemEventBus
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.qos.contract import QoSContract
from repro.transport.simnet import SimFabric


def milan_with_fleet():
    milan = Milan(health_monitor_policy())
    milan.add_sensor(SensorInfo("bp", {"blood_pressure": 0.9},
                                active_power_w=0.01, energy_j=5.0))
    milan.add_sensor(SensorInfo("hr", {"heart_rate": 0.9},
                                active_power_w=0.01, energy_j=5.0))
    return milan


class TestSystemEventBus:
    def test_wildcard_subscription(self):
        bus = SystemEventBus()
        seen = []
        bus.subscribe("node.#", lambda topic, payload: seen.append(topic))
        bus.publish("node.crashed", {"node": "n1"})
        bus.publish("service.registered", {"service": "s"})
        assert seen == ["node.crashed"]

    def test_metrics_count_by_topic(self):
        bus = SystemEventBus()
        bus.publish("qos.violated", {})
        bus.publish("qos.violated", {})
        bus.publish("qos.repaired", {})
        assert len(bus.events_matching("qos.violated")) == 2
        assert len(bus.events_matching("qos.repaired")) == 1

    def test_history_query(self):
        bus = SystemEventBus()
        bus.publish("txn.completed", {"txn": "t1"})
        bus.publish("txn.aborted", {"txn": "t2"})
        assert [p["txn"] for _t, p in bus.events_matching("txn.#")] == ["t1", "t2"]
        assert bus.events_matching("node.#") == []

    def test_watch_network_node_lifecycle(self):
        network = topology.star(2, radio_profile=IDEAL_RADIO)
        bus = SystemEventBus()
        bus.watch_network(network)
        network.node("leaf0").crash()
        network.node("leaf0").recover()
        topics = [t for t, _p in bus.history]
        assert topics == ["node.crashed", "node.recovered"]

    def test_watch_registry_lifecycle(self):
        network = topology.star(2, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        server = RegistryServer(fabric.endpoint("hub", "registry"))
        bus = SystemEventBus()
        bus.watch_registry(server)
        client = RegistryClient(fabric.endpoint("leaf0", "c"),
                                server.transport.local_address)
        client.register(ServiceDescription("svc", "cam", "leaf0:svc"),
                        lease_s=1.0, auto_renew=False)
        network.sim.run_until(5.0)
        topics = [t for t, _p in bus.history]
        assert topics == ["service.registered", "service.expired"]

    def test_watch_contract(self):
        bus = SystemEventBus()
        contract = QoSContract("c1", "sup-1")
        bus.watch_contract(contract)
        for _ in range(5):
            contract.observe_failure()
        violations = bus.events_matching("qos.violated")
        assert violations == [("qos.violated",
                               {"contract": "c1", "supplier": "sup-1"})]

    def test_watch_milan(self):
        bus = SystemEventBus()
        milan = milan_with_fleet()
        bus.watch_milan(milan)
        milan.set_state("distress")
        topics = [t for t, _p in bus.history]
        assert "milan.state_changed" in topics
        # distress is infeasible with this tiny fleet
        assert "milan.infeasible" in topics

    def test_milan_reconfigured_payload(self):
        bus = SystemEventBus()
        milan = milan_with_fleet()
        bus.watch_milan(milan)
        milan.reconfigure()
        reconfigured = bus.events_matching("milan.reconfigured")
        assert reconfigured
        payload = reconfigured[-1][1]
        assert set(payload["active"]) <= {"bp", "hr"}
        assert payload["lifetime_s"] > 0
