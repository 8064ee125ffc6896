"""System-wide event management (§3.10): one operator view of everything.

A small deployment runs suppliers, a registry, QoS-contracted streams, and
MiLAN. The SystemEventBus aggregates every component's events onto one
topic tree; an "operator" subscribes with wildcards and watches the system
react as failures are injected — supplier crashes, lease expiries,
transaction transfers, MiLAN reconfigurations — all in one stream.

Run:  python examples/system_monitoring.py
"""

from collections import Counter

from repro import Query, SystemEventBus, TransactionKind, TransactionSpec
from repro.core.milan import Milan
from repro.core.policy import health_monitor_policy
from repro.core.sensors import SensorInfo
from repro.discovery.description import ServiceDescription
from repro.discovery.registry import RegistryClient, RegistryServer
from repro.netsim import topology
from repro.netsim.failures import FailureInjector
from repro.netsim.medium import IDEAL_RADIO
from repro.qos.monitor import QoSMonitor
from repro.qos.spec import SupplierQoS
from repro.transactions.manager import TransactionManager
from repro.transactions.rpc import RpcEndpoint
from repro.transport.simnet import SimFabric


def main() -> None:
    network = topology.star(4, radius=40, radio_profile=IDEAL_RADIO)
    fabric = SimFabric(network)
    bus = SystemEventBus()
    bus.watch_network(network)

    # The operator console: subscribe to everything, print as it happens.
    def console(topic, payload):
        details = ", ".join(f"{k}={v}" for k, v in payload.items())
        print(f"  [{network.sim.now():6.1f}s] {topic:<22} {details}")

    bus.subscribe("#", console)

    # Registry + two redundant suppliers.
    registry = RegistryServer(fabric.endpoint("hub", "registry"))
    bus.watch_registry(registry)
    for i, sensor_id in enumerate(("bp-a", "bp-b")):
        rpc = RpcEndpoint(fabric.endpoint(f"leaf{i}", "svc"))
        rpc.expose("read", lambda sid=sensor_id: f"{sid}-reading")
        RegistryClient(fabric.endpoint(f"leaf{i}", "reg"),
                       registry.transport.local_address).register(
            ServiceDescription(sensor_id, "bp-sensor", f"leaf{i}:svc",
                               qos=SupplierQoS(reliability=0.99 - 0.04 * i)),
            lease_s=4.0)

    network.sim.run_until(0.5)  # let the registrations land

    # A consumer with a continuous contracted stream.
    consumer_rpc = RpcEndpoint(fabric.endpoint("leaf2", "svc"))
    discovery = RegistryClient(fabric.endpoint("leaf2", "disc"),
                               registry.transport.local_address)
    manager = TransactionManager(consumer_rpc, discovery, call_timeout_s=0.5)
    bus.watch_transactions(manager)
    # The stream's QoS contract feeds the bus too, and a monitor totals
    # delivered QoS across contracts.
    monitor = QoSMonitor()

    def watch(transaction):
        bus.watch_contract(transaction.contract)
        monitor.register(transaction.contract)

    manager.establish(
        Query("bp-sensor"),
        TransactionSpec(TransactionKind.CONTINUOUS, interval_s=1.0),
    ).on_value(watch)

    # MiLAN runs alongside, also feeding the bus.
    milan = Milan(health_monitor_policy())
    bus.watch_milan(milan)
    milan.add_sensor(SensorInfo("bp-a", {"blood_pressure": 0.9}, 0.01, 5.0))
    milan.add_sensor(SensorInfo("hr-x", {"heart_rate": 0.9}, 0.01, 5.0))

    print("operator event stream:\n")
    network.sim.run_until(4.0)

    # Inject the day's trouble: the active supplier crashes.
    FailureInjector(network).crash_at(4.5, "leaf0")
    network.sim.run_until(20.0)

    totals = Counter(topic for topic, _payload in bus.history)
    print("\nevent totals\n------------")
    for topic, count in sorted(totals.items()):
        print(f"{topic}  {count}")
    transfers = bus.events_matching("txn.transferred")
    assert transfers, "the stream should have transferred to bp-b"
    print(f"\nthe stream survived: transferred {transfers[0][1]['from']} "
          f"-> {transfers[0][1]['to']}")
    print(f"delivered QoS: success rate {monitor.system_success_rate():.2f}, "
          f"{len(monitor.violated_contracts())} contract(s) in violation")


if __name__ == "__main__":
    main()
