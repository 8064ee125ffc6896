"""Heartbeat failure detection driving QoS degradation — the §3.4/§3.8
composition: detectors notice supplier death, the degradation manager
rebinds."""

import pytest

from repro.qos.monitor import DegradationManager
from repro.qos.spec import ConsumerQoS, SupplierQoS
from repro.recovery.heartbeat import HeartbeatDetector
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.transport.base import Address
from repro.transport.simnet import SimFabric


class TestHeartbeatDrivenRebinding:
    def test_suspected_supplier_triggers_rebind(self):
        network = topology.star(3, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)

        # Two suppliers heartbeat toward the consumer's detector.
        detectors = {}
        for leaf in ("leaf0", "leaf1"):
            detector = HeartbeatDetector(fabric.endpoint(leaf, "hb"),
                                         interval_s=0.5)
            detector.send_to(Address("hub", "hb"))
            detectors[leaf] = detector
        watcher = HeartbeatDetector(fabric.endpoint("hub", "hb"), interval_s=0.5)
        watcher.watch("leaf0")
        watcher.watch("leaf1")

        suppliers = {
            "leaf0": SupplierQoS(reliability=0.99),
            "leaf1": SupplierQoS(reliability=0.95),
        }

        def candidates():
            return [
                (node_id, qos, None)
                for node_id, qos in suppliers.items()
                if not watcher.suspected(node_id)
            ]

        manager = DegradationManager(ConsumerQoS(min_reliability=0.9), candidates)
        watcher.events.on("suspect", manager.supplier_lost)

        network.sim.run_until(3.0)
        assert manager.bind() == "leaf0"

        # The best supplier dies; heartbeats stop; the detector suspects it
        # and the manager rebinds — no application involvement.
        network.node("leaf0").crash()
        network.sim.run_until(10.0)
        assert watcher.suspected("leaf0")
        assert manager.current_supplier == "leaf1"
        assert manager.delivered_quality() > 0

    def test_recovered_supplier_can_win_back(self):
        network = topology.star(2, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        speaker = HeartbeatDetector(fabric.endpoint("leaf0", "hb"), interval_s=0.5)
        speaker.send_to(Address("hub", "hb"))
        watcher = HeartbeatDetector(fabric.endpoint("hub", "hb"), interval_s=0.5)
        watcher.watch("leaf0")

        suppliers = {
            "leaf0": SupplierQoS(reliability=0.99),
            "backup": SupplierQoS(reliability=0.92),  # always "alive"
        }

        def candidates():
            return [
                (node_id, qos, None)
                for node_id, qos in suppliers.items()
                if node_id == "backup" or not watcher.suspected(node_id)
            ]

        manager = DegradationManager(ConsumerQoS(min_reliability=0.9), candidates)
        watcher.events.on("suspect", manager.supplier_lost)

        def recover(_node_id):
            manager.level = 0
            manager.bind()

        watcher.events.on("alive", recover)

        network.sim.run_until(2.0)
        manager.bind()
        assert manager.current_supplier == "leaf0"
        network.node("leaf0").crash()
        network.sim.run_until(8.0)
        assert manager.current_supplier == "backup"
        network.node("leaf0").recover()
        network.sim.run_until(15.0)
        assert manager.current_supplier == "leaf0"  # won back on recovery
