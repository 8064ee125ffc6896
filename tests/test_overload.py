"""Tests for the overload-protection path: pacing, admission, governor.

Covers the three layers end to end: :class:`PacedTransport` (bounded
queues + shedding on the wire), :class:`AdmissionController` (priority
classes at the request edge), and :class:`OverloadGovernor` (pressure →
MiLAN requirement degradation toward a QoS floor) — plus the RPC and
replication client wiring that surfaces refusals with retry hints.
"""

import pytest

from repro.core import (
    DEFAULT_LEVELS,
    Milan,
    OverloadGovernor,
    OverloadLevel,
    SensorInfo,
    queue_pressure,
    rejection_pressure,
)
from repro.core.policy import health_monitor_policy
from repro.errors import AdmissionRefused, ConfigurationError
from repro.qos import AdmissionController, PriorityClass
from repro.replication.client import GroupClient
from repro.qos.bandwidth import BandwidthAllocator
from repro.transactions.rpc import RpcEndpoint
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric
from repro.transport.pacing import PacedTransport


def paced_pair(rate_bps=800.0, max_queue=4, capacity_bps=1000.0):
    fabric = InMemoryFabric()
    sender = fabric.endpoint("a", "p")
    receiver = fabric.endpoint("b", "p")
    got = []
    receiver.set_receiver(lambda source, payload: got.append(payload))
    allocator = BandwidthAllocator(capacity_bps, burst_s=1.0)
    paced = PacedTransport(sender, allocator, "flow", rate_bps=rate_bps,
                           max_queue=max_queue)
    return fabric, allocator, paced, got


class TestPacedTransport:
    def test_sends_inline_within_burst(self):
        fabric, _, paced, got = paced_pair()
        paced.send(Address("b", "p"), b"x" * 50)  # 400 bits of an 800 burst
        assert paced.paced_sent == 1
        assert paced.queue_depth == 0
        fabric.run()
        assert got == [b"x" * 50]

    def test_queues_then_drains_in_fifo_order(self):
        fabric, _, paced, got = paced_pair(rate_bps=800.0, max_queue=4)
        payloads = [f"m{i}".encode().ljust(50, b".") for i in range(7)]
        for payload in payloads:  # 400 bits each against an 800-bit burst
            paced.send(Address("b", "p"), payload)
        # Two fit the initial burst, four queue, the seventh is shed.
        assert paced.paced_sent == 2
        assert paced.queued == 4
        assert paced.shed == 1
        assert paced.max_queue_depth == 4
        fabric.sim.run_until(10.0)
        assert paced.paced_sent == 6
        assert paced.queue_depth == 0
        assert got == payloads[:6]  # tail-drop: FIFO order survives

    def test_oversize_payload_is_shed_not_queued(self):
        fabric, _, paced, got = paced_pair()
        paced.send(Address("b", "p"), b"x" * 200)  # 1600 bits > any burst
        assert paced.shed == 1
        assert paced.shed_oversize == 1
        assert paced.queue_depth == 0
        fabric.sim.run_until(10.0)
        assert got == []

    def test_close_releases_owned_flow(self):
        fabric, allocator, paced, _ = paced_pair()
        assert "flow" in allocator._flows
        paced.close()
        assert "flow" not in allocator._flows
        assert paced.closed and paced.inner.closed

    def test_close_sheds_what_is_still_queued(self):
        """Every send is sent, queued then sent, or shed — also at close."""
        fabric, _, paced, got = paced_pair()
        paced.send(Address("b", "p"), b"x" * 100)  # the whole 800-bit burst
        for i in range(3):
            paced.send(Address("b", "p"), bytes([i]) * 50)
        assert (paced.paced_sent, paced.queue_depth) == (1, 3)
        paced.close()
        assert paced.shed == 3 and paced.queue_depth == 0
        fabric.sim.run_until(10.0)
        assert got == [b"x" * 100]

    def test_unowned_flow_must_preexist_and_survives_close(self):
        fabric = InMemoryFabric()
        allocator = BandwidthAllocator(1000.0, burst_s=1.0)
        with pytest.raises(ConfigurationError):
            PacedTransport(fabric.endpoint("a", "p"), allocator, "ghost")
        allocator.reserve("shared", 500.0)
        paced = PacedTransport(fabric.endpoint("c", "p"), allocator, "shared")
        paced.close()
        assert "shared" in allocator._flows  # caller's reservation, not ours

    def test_drain_timer_always_advances_virtual_time(self):
        """Regression: an exact-refill wait can round below the clock's
        float resolution (~1e-16 s near t=4.5), scheduling a drain at the
        *current* instant forever — a virtual-time livelock. The slack
        added to every drain wait must keep the timer strictly ahead."""
        fabric, allocator, paced, got = paced_pair(rate_bps=1000.0)
        fabric.sim.run_until(4.5)
        bucket = allocator._flows["flow"]
        bucket._refill(fabric.sim.now())
        bucket.tokens = 1000.0 - 1e-13  # an ulp short of the payload
        paced.send(Address("b", "p"), b"x" * 125)  # 1000 bits -> queued
        assert paced.queue_depth == 1
        assert paced._drain_timer.time > fabric.sim.now()
        fabric.sim.run_until(6.0)
        assert paced.queue_depth == 0
        assert got == [b"x" * 125]


class TestAdmissionController:
    def make(self, **kwargs):
        defaults = dict(
            now_fn=lambda: 0.0,
            capacity_per_s=10.0,
            classes=[
                PriorityClass("probe", 1.0, privileged=True),
                PriorityClass("normal", 5.0),
            ],
        )
        defaults.update(kwargs)
        return AdmissionController(**defaults)

    def test_admits_within_burst_then_hints_retry(self):
        admission = self.make()
        for _ in range(5):  # burst defaults to one second of rate
            assert admission.try_admit("normal", now=0.0) is None
        retry_after = admission.try_admit("normal", now=0.0)
        assert retry_after == pytest.approx(0.2)  # 1 request at 5 rps
        assert admission.admitted == 5
        assert admission.rejected == 1
        assert admission.rejection_fraction == pytest.approx(1 / 6)
        # The hint is a promise: waiting exactly that long admits.
        assert admission.try_admit("normal", now=retry_after) is None

    def test_privileged_class_borrows_headroom(self):
        admission = self.make()
        # probe guarantees 1 rps but capacity leaves 4 rps of headroom.
        for _ in range(5):
            assert admission.try_admit("probe", now=0.0) is None
        assert admission.try_admit("probe", now=0.0) > 0.0
        # Meanwhile the normal class is confined to its reservation.
        for _ in range(5):
            assert admission.try_admit("normal", now=0.0) is None
        assert admission.try_admit("normal", now=0.0) > 0.0

    def test_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            self.make(classes=[])
        with pytest.raises(ConfigurationError):
            self.make(classes=[PriorityClass("a", 1.0), PriorityClass("a", 2.0)])
        with pytest.raises(ConfigurationError):
            PriorityClass("zero", 0.0)
        with pytest.raises(ConfigurationError):
            self.make().try_admit("ghost", now=0.0)

    def test_stats(self):
        admission = self.make()
        admission.try_admit("normal", now=0.0)
        stats = admission.stats()
        assert stats["admitted"] == 1
        assert stats["rejected"] == 0
        assert stats["rejection_fraction"] == 0.0


class TestClientAdmissionWiring:
    def test_rpc_call_refused_with_retry_hint(self):
        fabric = InMemoryFabric(latency_s=0.01)
        server = RpcEndpoint(fabric.endpoint("server", "rpc"))
        server.expose("ping", lambda: "pong")
        admission = AdmissionController(
            fabric.sim.now, capacity_per_s=10.0,
            classes=[PriorityClass("normal", 2.0),
                     PriorityClass("vip", 2.0, privileged=True)],
        )
        client = RpcEndpoint(fabric.endpoint("client", "rpc"),
                             admission=admission)
        target = server.transport.local_address
        admitted = [client.call(target, "ping") for _ in range(2)]
        refused = client.call(target, "ping")
        assert refused.rejected
        error = refused.error()
        assert isinstance(error, AdmissionRefused)
        assert error.retry_after_s == pytest.approx(0.5)
        assert client.admission_rejected == 1
        # A priority override reaches a different class (with headroom).
        boosted = client.call(target, "ping", priority="vip")
        fabric.run()
        assert [p.result() for p in admitted] == ["pong", "pong"]
        assert boosted.result() == "pong"

    def test_group_client_refused_before_any_network_traffic(self):
        fabric = InMemoryFabric(latency_s=0.01)
        admission = AdmissionController(
            fabric.sim.now, capacity_per_s=2.0,
            classes=[PriorityClass("normal", 1.0)],
        )
        client = GroupClient(
            fabric.endpoint("client", "repl"),
            [Address("member", "repl")],
            admission=admission,
        )
        first = client.command("put", "k", "v")
        second = client.command("put", "k", "v2")
        assert not first.rejected  # admitted, pending on the network
        assert second.rejected
        error = second.error()
        assert isinstance(error, AdmissionRefused)
        assert error.retry_after_s == pytest.approx(1.0)
        assert client.admission_rejected == 1
        assert client.stats()["admission_rejected"] == 1
        client.close()


class FakeScheduler:
    def __init__(self):
        self.t = 0.0
        self.scheduled = []

    def now(self):
        return self.t

    def schedule(self, delay, fn, *args):
        self.scheduled.append((self.t + delay, fn))
        return None


class TestOverloadGovernor:
    def make(self, **kwargs):
        defaults = dict(scheduler=FakeScheduler(), milan=None, dwell_s=3.0)
        defaults.update(kwargs)
        governor = OverloadGovernor(defaults.pop("scheduler"),
                                    defaults.pop("milan"), **defaults)
        pressure = {"value": 0.0}
        governor.add_signal("test", lambda: pressure["value"])
        return governor, pressure

    def test_level_validation(self):
        with pytest.raises(ConfigurationError):
            OverloadLevel("bad", enter=0.5, exit=0.6, scale=0.8)
        with pytest.raises(ConfigurationError):
            OverloadLevel("bad", enter=0.5, exit=0.2, scale=0.0)

    def test_default_levels_climb_in_order(self):
        enters = [level.enter for level in DEFAULT_LEVELS]
        exits = [level.exit for level in DEFAULT_LEVELS]
        scales = [level.scale for level in DEFAULT_LEVELS]
        assert enters == sorted(set(enters))
        assert exits == sorted(set(exits))
        assert scales == sorted(set(scales), reverse=True)

    def test_each_level_is_entered_at_its_threshold(self):
        governor, pressure = self.make()
        names = []
        for index, level in enumerate(DEFAULT_LEVELS, start=1):
            pressure["value"] = level.enter - 0.01
            assert governor.tick(now=float(index)) == index - 1
            pressure["value"] = level.enter
            assert governor.tick(now=float(index)) == index
            names.append(governor.level_name)
        assert names == [level.name for level in DEFAULT_LEVELS]

    def test_spike_escalates_immediately_skipping_rungs(self):
        governor, pressure = self.make()
        transitions = []
        governor.events.on("degraded", lambda old, new: transitions.append((old, new)))
        pressure["value"] = 0.95
        assert governor.tick(now=0.0) == len(DEFAULT_LEVELS)
        assert governor.level_name == "critical"
        assert governor.escalations == 1  # one jump, not three
        assert transitions == [("nominal", "critical")]

    def test_deescalation_needs_dwell_and_steps_one_rung(self):
        governor, pressure = self.make(dwell_s=3.0)
        restored = []
        governor.events.on("restored", lambda old, new: restored.append((old, new)))
        pressure["value"] = 0.95
        governor.tick(now=0.0)
        pressure["value"] = 0.0
        assert governor.tick(now=1.0) == 3  # calm starts, dwell not met
        assert governor.tick(now=2.0) == 3
        assert governor.tick(now=4.0) == 2  # 3s of calm -> one rung down
        assert governor.tick(now=5.0) == 2  # dwell restarts per rung
        assert governor.tick(now=7.0) == 1
        assert governor.tick(now=10.0) == 0
        assert governor.deescalations == 3
        assert restored == [("critical", "high"), ("high", "elevated"),
                            ("elevated", "nominal")]

    def test_hysteresis_band_holds_the_level(self):
        governor, pressure = self.make(dwell_s=2.0)
        pressure["value"] = 0.6
        governor.tick(now=0.0)
        assert governor.level_name == "elevated"
        # Above exit (0.25) but below enter (0.5): no flapping either way,
        # and the calm clock must not accumulate.
        pressure["value"] = 0.3
        for t in (1.0, 2.0, 3.0, 4.0):
            assert governor.tick(now=t) == 1
        pressure["value"] = 0.2
        governor.tick(now=5.0)
        assert governor.tick(now=8.0) == 0

    def test_degraded_requirements_respect_floor_and_base(self):
        governor, _ = self.make(floor={"hr": 0.8, "spo2": 0.99})
        governor.level = len(DEFAULT_LEVELS)  # critical: scale 0.5
        base = {"hr": 0.9, "bp": 0.6, "spo2": 0.5}
        degraded = governor.degraded_requirements(base)
        assert degraded["hr"] == 0.8    # floor wins over 0.45
        assert degraded["bp"] == 0.3    # plain scaling
        assert degraded["spo2"] == 0.5  # floor never exceeds base

    def test_governor_degrades_and_restores_milan(self):
        milan = Milan(health_monitor_policy())
        milan.add_sensor(SensorInfo("ecg", {"heart_rate": 0.95,
                                            "blood_pressure": 0.8}))
        milan.add_sensor(SensorInfo("cuff", {"blood_pressure": 0.9}))
        base = dict(milan.requirements())
        governor, pressure = self.make(
            milan=milan, dwell_s=1.0,
            floor={"heart_rate": 0.5, "blood_pressure": 0.5},
        )
        before = milan.reconfigurations
        pressure["value"] = 1.0
        governor.tick(now=0.0)
        degraded = milan.requirements()
        assert degraded["heart_rate"] == pytest.approx(0.5)  # floored
        assert all(degraded[k] <= base[k] for k in base)
        assert milan.reconfigurations > before
        pressure["value"] = 0.0
        for t in (1.0, 2.5, 4.0, 5.5, 7.0, 8.5, 10.0):
            governor.tick(now=t)
        assert governor.level == 0
        assert milan.requirements() == base

    def test_pressure_is_clamped_max_over_signals(self):
        governor, pressure = self.make()
        governor.add_signal("wild", lambda: 7.3)
        assert governor.sample_pressure() == 1.0
        del governor._signals["wild"]
        pressure["value"] = -2.0
        assert governor.sample_pressure() == 0.0
        with pytest.raises(ConfigurationError):
            governor.add_signal("test", lambda: 0.0)


class TestSignalRecipes:
    def test_queue_pressure(self):
        class Stub:
            max_queue = 8
            queue_depth = 6
        assert queue_pressure(Stub())() == pytest.approx(0.75)
        assert queue_pressure(Stub(), max_queue=12)() == pytest.approx(0.5)

    def test_rejection_pressure_differences_counters(self):
        class Stub:
            admitted = 0
            rejected = 0
        stub = Stub()
        signal = rejection_pressure(stub)
        stub.admitted, stub.rejected = 2, 8
        assert signal() == pytest.approx(0.8)
        stub.admitted, stub.rejected = 12, 8  # 10 admits, 0 rejects since
        assert signal() == 0.0
        assert signal() == 0.0  # idle -> no pressure


class TestMilanRequirementsOverride:
    def test_override_applies_and_clears(self):
        milan = Milan(health_monitor_policy())
        milan.add_sensor(SensorInfo("ecg", {"heart_rate": 0.95,
                                            "blood_pressure": 0.8}))
        base = dict(milan.requirements())
        before = milan.reconfigurations + milan.infeasible_rounds
        milan.set_requirements_override(
            lambda req: {k: round(v * 0.5, 9) for k, v in req.items()})
        assert milan.requirements() == {k: round(v * 0.5, 9)
                                        for k, v in base.items()}
        assert milan.reconfigurations + milan.infeasible_rounds > before
        milan.set_requirements_override(None)
        assert milan.requirements() == base
