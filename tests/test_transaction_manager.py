"""Tests for the transaction abstraction and manager."""

import pytest

from repro.discovery.description import ServiceDescription
from repro.discovery.matching import Query
from repro.discovery.registry import RegistryClient, RegistryServer
from repro.errors import ServiceNotFoundError, TransactionError
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.qos.spec import SupplierQoS
from repro.transactions.manager import FAILURE_THRESHOLD, TransactionManager
from repro.transactions.rpc import RpcEndpoint
from repro.transactions.transaction import (
    Transaction,
    TransactionKind,
    TransactionSpec,
    TransactionState,
)
from repro.transport.simnet import SimFabric


def make_description(service_id="s", provider="n:svc"):
    return ServiceDescription(service_id, "sensor", provider)


class TestTransactionStateMachine:
    def make(self, kind=TransactionKind.ON_DEMAND):
        return Transaction("t1", TransactionSpec(kind), make_description())

    def test_initial_state_pending(self):
        assert self.make().state == TransactionState.PENDING

    def test_legal_lifecycle(self):
        txn = self.make()
        txn.transition(TransactionState.ACTIVE)
        txn.transition(TransactionState.SUSPENDED)
        txn.transition(TransactionState.TRANSFERRED)
        txn.transition(TransactionState.ACTIVE)
        txn.transition(TransactionState.COMPLETED)
        assert txn.finished

    def test_illegal_transition_rejected(self):
        txn = self.make()
        with pytest.raises(TransactionError):
            txn.transition(TransactionState.COMPLETED)  # pending -> completed

    def test_completed_is_terminal(self):
        txn = self.make()
        txn.transition(TransactionState.ACTIVE)
        txn.transition(TransactionState.COMPLETED)
        with pytest.raises(TransactionError):
            txn.transition(TransactionState.ACTIVE)

    def test_state_change_events(self):
        txn = self.make()
        seen = []
        txn.events.on("state_changed", lambda t, old, new: seen.append((old, new)))
        txn.transition(TransactionState.ACTIVE)
        assert seen == [(TransactionState.PENDING, TransactionState.ACTIVE)]

    def test_deliver_feeds_contract_and_callback(self):
        from repro.qos.contract import QoSContract

        values = []
        contract = QoSContract("c", "y")
        txn = Transaction(
            "t", TransactionSpec(TransactionKind.CONTINUOUS), make_description(),
            on_data=lambda v, lat: values.append(v), contract=contract,
        )
        txn.deliver(42, 0.01)
        assert values == [42]
        assert txn.deliveries == 1
        assert contract.total_observations == 1

    def test_retarget_counts_transfers(self):
        txn = self.make()
        txn.retarget(make_description("other"))
        assert txn.supplier.service_id == "other"
        assert txn.transfers == 1


class ManagerHarness:
    """Registry + two suppliers + a consumer-side manager on a star."""

    def __init__(self, seed=0):
        self.network = topology.star(6, radius=40, radio_profile=IDEAL_RADIO,
                                     seed=seed)
        self.fabric = SimFabric(self.network)
        self.sim = self.network.sim
        registry = RegistryServer(self.fabric.endpoint("hub", "registry"))
        self.registry_address = registry.transport.local_address
        self.reading = {"leaf4": 120, "leaf5": 125}
        self.supplier1 = RpcEndpoint(self.fabric.endpoint("leaf4", "svc"))
        self.supplier1.expose("read", lambda **kw: self.reading["leaf4"])
        self.supplier2 = RpcEndpoint(self.fabric.endpoint("leaf5", "svc"))
        self.supplier2.expose("read", lambda **kw: self.reading["leaf5"])
        RegistryClient(self.fabric.endpoint("leaf4", "reg"),
                       self.registry_address).register(
            ServiceDescription("bp1", "bp", "leaf4:svc",
                               qos=SupplierQoS(reliability=0.99)), lease_s=10)
        RegistryClient(self.fabric.endpoint("leaf5", "reg"),
                       self.registry_address).register(
            ServiceDescription("bp2", "bp", "leaf5:svc",
                               qos=SupplierQoS(reliability=0.95)), lease_s=10)
        self.sim.run_until(2.0)
        self.rpc = RpcEndpoint(self.fabric.endpoint("leaf0", "svc"))
        self.discovery = RegistryClient(self.fabric.endpoint("leaf0", "disc"),
                                        self.registry_address)
        self.manager = TransactionManager(self.rpc, self.discovery,
                                          call_timeout_s=0.5)


class TestTransactionManager:
    def test_on_demand_completes(self):
        harness = ManagerHarness()
        promise = harness.manager.establish(
            Query("bp"), TransactionSpec(TransactionKind.ON_DEMAND)
        )
        harness.sim.run_until(5.0)
        txn = promise.result()
        assert txn.state == TransactionState.COMPLETED
        assert txn.deliveries == 1
        assert txn.supplier.service_id == "bp1"  # best reliability wins

    def test_continuous_streams_at_interval(self):
        harness = ManagerHarness()
        readings = []
        promise = harness.manager.establish(
            Query("bp"), TransactionSpec(TransactionKind.CONTINUOUS, interval_s=1.0),
            on_data=lambda value, latency: readings.append(value),
        )
        harness.sim.run_until(8.0)
        txn = promise.result()
        assert len(readings) >= 5
        harness.manager.stop(txn)
        count = len(readings)
        harness.sim.run_until(15.0)
        assert len(readings) == count  # stopped streams stay stopped

    def test_intermittent_fires_at_predicted_times(self):
        harness = ManagerHarness()
        readings = []
        harness.manager.establish(
            Query("bp"),
            TransactionSpec(TransactionKind.INTERMITTENT,
                            predicted_times=(4.0, 6.0, 8.0)),
            on_data=lambda value, latency: readings.append(harness.sim.now()),
        )
        harness.sim.run_until(12.0)
        assert len(readings) == 3
        assert readings[0] >= 4.0 and readings[1] >= 6.0

    def test_no_supplier_rejects(self):
        harness = ManagerHarness()
        promise = harness.manager.establish(
            Query("nonexistent"), TransactionSpec(TransactionKind.ON_DEMAND)
        )
        harness.sim.run_until(5.0)
        assert promise.rejected
        with pytest.raises(ServiceNotFoundError):
            promise.result()

    def test_supplier_crash_triggers_transfer(self):
        harness = ManagerHarness()
        readings = []
        promise = harness.manager.establish(
            Query("bp"), TransactionSpec(TransactionKind.CONTINUOUS, interval_s=1.0),
            on_data=lambda value, latency: readings.append(value),
        )
        harness.sim.run_until(5.0)
        txn = promise.result()
        transferred = []
        harness.manager.events.on(
            "transferred", lambda t, old: transferred.append(old)
        )
        harness.network.node("leaf4").crash()
        harness.sim.run_until(30.0)
        assert txn.supplier.service_id == "bp2"
        assert transferred == ["bp1"]
        assert 125 in readings

    def test_transfer_waits_for_the_failure_threshold(self):
        harness = ManagerHarness()
        promise = harness.manager.establish(
            Query("bp"), TransactionSpec(TransactionKind.CONTINUOUS, interval_s=1.0)
        )
        harness.sim.run_until(5.0)
        txn = promise.result()
        failures_at_transfer = []
        harness.manager.events.on(
            "transferred", lambda t, old: failures_at_transfer.append(t.failures)
        )
        harness.network.node("leaf4").crash()
        harness.sim.run_until(30.0)
        assert failures_at_transfer == [FAILURE_THRESHOLD]

    def test_abort_when_no_replacement(self):
        harness = ManagerHarness()
        promise = harness.manager.establish(
            Query("bp"), TransactionSpec(TransactionKind.CONTINUOUS, interval_s=1.0)
        )
        harness.sim.run_until(5.0)
        txn = promise.result()
        harness.network.node("leaf4").crash()
        harness.network.node("leaf5").crash()
        harness.sim.run_until(60.0)
        assert txn.state == TransactionState.ABORTED

    def test_request_transfer_is_proactive(self):
        harness = ManagerHarness()
        promise = harness.manager.establish(
            Query("bp"), TransactionSpec(TransactionKind.CONTINUOUS, interval_s=1.0)
        )
        harness.sim.run_until(5.0)
        txn = promise.result()
        original = txn.supplier.service_id
        harness.manager.request_transfer(txn)
        harness.sim.run_until(10.0)
        assert txn.supplier.service_id != original
        assert txn.state == TransactionState.ACTIVE
