"""Tests for the secure transport and the MiLAN discovery binder."""

import pytest

from repro.core.binder import MISS_LIMIT, DiscoveryBinder
from repro.core.milan import Milan
from repro.core.policy import ApplicationPolicy
from repro.core.requirements import VariableRequirements
from repro.discovery.description import ServiceDescription
from repro.discovery.distributed import DistributedDiscovery
from repro.errors import ConfigurationError
from repro.interop.codec import BinaryCodec
from repro.interop.frames import WireFrame
from repro.netsim.simulator import Simulator
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.qos.spec import SupplierQoS
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric
from repro.transport.reliable import ReliabilityParams, ReliableTransport
from repro.transport.secure import (
    NONCE_BYTES,
    SECURE_OVERHEAD_BYTES,
    SecureChannel,
    SecureTransport,
)
from repro.transport.simnet import SimFabric
from repro.util.promise import Promise

KEY = b"0123456789abcdef-shared-secret"
OTHER_KEY = b"another-key-0123456789abcdef!!"


class TestSecureChannel:
    def test_seal_open_round_trip(self):
        channel = SecureChannel(KEY)
        frame = channel.seal("node:port", b"secret payload")
        assert SecureChannel(KEY).open(frame) == b"secret payload"

    def test_ciphertext_differs_from_plaintext(self):
        channel = SecureChannel(KEY)
        frame = channel.seal("a", b"secret payload")
        assert b"secret payload" not in frame

    def test_nonces_never_repeat(self):
        channel = SecureChannel(KEY)
        frames = {channel.seal("a", b"x")[:12] for _ in range(100)}
        assert len(frames) == 100

    def test_wrong_key_fails_open(self):
        frame = SecureChannel(KEY).seal("a", b"data")
        assert SecureChannel(OTHER_KEY).open(frame) is None

    def test_tampering_detected(self):
        frame = bytearray(SecureChannel(KEY).seal("a", b"data"))
        frame[14] ^= 0x01  # flip a ciphertext bit
        assert SecureChannel(KEY).open(bytes(frame)) is None

    def test_truncated_frame_rejected(self):
        assert SecureChannel(KEY).open(b"short") is None

    def test_empty_payload(self):
        channel = SecureChannel(KEY)
        assert SecureChannel(KEY).open(channel.seal("a", b"")) == b""

    def test_short_key_rejected(self):
        with pytest.raises(ConfigurationError):
            SecureChannel(b"short")


class TestSecureTransport:
    def test_end_to_end_encrypted_delivery(self):
        fabric = InMemoryFabric(latency_s=0.01)
        a = SecureTransport(fabric.endpoint("a"), KEY)
        b = SecureTransport(fabric.endpoint("b"), KEY)
        received = []
        b.set_receiver(lambda src, data: received.append(data))
        a.send(Address("b"), b"confidential")
        fabric.run()
        assert received == [b"confidential"]

    def test_wrong_key_peer_gets_nothing(self):
        fabric = InMemoryFabric(latency_s=0.01)
        a = SecureTransport(fabric.endpoint("a"), KEY)
        intruder = SecureTransport(fabric.endpoint("b"), OTHER_KEY)
        received = []
        intruder.set_receiver(lambda src, data: received.append(data))
        a.send(Address("b"), b"confidential")
        fabric.run()
        assert received == []
        assert intruder.auth_failures == 1

    def test_plaintext_never_on_the_wire(self):
        fabric = InMemoryFabric(latency_s=0.01)
        a = SecureTransport(fabric.endpoint("a"), KEY)
        wiretap = fabric.endpoint("b")  # raw endpoint: sees ciphertext
        captured = []
        wiretap.set_receiver(lambda src, data: captured.append(data))
        a.send(Address("b"), b"confidential")
        fabric.run()
        assert len(captured) == 1
        assert b"confidential" not in captured[0]
        assert len(captured[0]) == len(b"confidential") + SECURE_OVERHEAD_BYTES

    def test_overhead_accounted(self):
        fabric = InMemoryFabric()
        a = SecureTransport(fabric.endpoint("a"), KEY)
        a.send(Address("b"), b"12345")
        assert a.inner.sent_bytes == 5 + SECURE_OVERHEAD_BYTES

    @pytest.mark.parametrize("fabric_kind", ["inmemory", "simnet"])
    @pytest.mark.parametrize("sender_kind", ["plain-endpoint", "plain-reliable"])
    def test_unencrypted_frames_are_auth_failures(self, fabric_kind, sender_kind):
        """A peer without the key sends lazy frames — a plain endpoint's
        ``WireFrame``, a plain reliable layer's ``PrefixedFrame`` DATA. Each
        is one counted authentication failure: never delivered, never
        materialized, never a raise through the event loop."""
        if fabric_kind == "inmemory":
            fabric = InMemoryFabric(latency_s=0.01)
        else:
            fabric = SimFabric(topology.star(2, radius=40,
                                             radio_profile=IDEAL_RADIO))
        secure = SecureTransport(fabric.endpoint("leaf1", "app"), KEY)
        received = []
        secure.set_receiver(lambda src, data: received.append(data))
        plain = fabric.endpoint("leaf0", "app")
        if sender_kind == "plain-reliable":
            plain = ReliableTransport(plain, ReliabilityParams(max_retries=0))
        # Longer than a sealed frame's nonce + tag, so it reaches open().
        frame = WireFrame({"op": "x", "note": "n" * 40}, BinaryCodec())
        plain.send(secure.local_address, frame)
        fabric.run()
        assert received == []
        assert secure.auth_failures == 1
        assert frame._encoded is None


def _binder_policy() -> ApplicationPolicy:
    return ApplicationPolicy(
        "binder-test",
        VariableRequirements().require("on", "temp", 0.8),
        initial_state="on",
    )


def _sensor_description(sensor_id: str, node: str, reliability: float = 0.9):
    return ServiceDescription(
        sensor_id, "sensor", f"{node}:svc",
        qos=SupplierQoS(properties={"var:temp": str(reliability),
                                    "power_w": "0.01"}),
    )


class _ListedSensors:
    """A discovery agent whose every lookup returns ``descriptions`` at once."""

    def __init__(self, descriptions):
        self.descriptions = descriptions

    def lookup(self, query):
        promise = Promise()
        promise.fulfill(list(self.descriptions))
        return promise


class TestDiscoveryBinder:
    def listed(self):
        agent = _ListedSensors([_sensor_description("t1", "leaf0")])
        milan = Milan(_binder_policy())
        binder = DiscoveryBinder(milan, agent, Simulator())
        assert binder.bound_sensors == {"t1"}
        agent.descriptions = []
        return agent, milan, binder

    def test_sensor_unbound_at_the_miss_limit(self):
        _agent, milan, binder = self.listed()
        for _ in range(MISS_LIMIT - 1):
            binder.refresh()
        assert binder.bound_sensors == {"t1"}
        binder.refresh()
        assert binder.bound_sensors == set()
        assert "t1" not in milan.sensors

    def test_reappearance_resets_the_miss_count(self):
        agent, milan, binder = self.listed()
        for _ in range(MISS_LIMIT - 1):
            binder.refresh()
        agent.descriptions = [_sensor_description("t1", "leaf0")]
        binder.refresh()
        agent.descriptions = []
        for _ in range(MISS_LIMIT - 1):
            binder.refresh()
        assert binder.bound_sensors == {"t1"}
        assert "t1" in milan.sensors

    def build(self):
        network = topology.star(4, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        agents = {
            node_id: DistributedDiscovery(
                fabric.endpoint(node_id, "disc"), collect_window_s=0.5,
                advertise_interval_s=2.0, advert_lease_s=4.0,
            )
            for node_id in network.node_ids()
        }
        milan = Milan(_binder_policy())
        binder = DiscoveryBinder(
            milan, agents["hub"], fabric.scheduler,
            service_type="sensor", refresh_interval_s=2.0,
        )
        return network, agents, milan, binder

    def test_discovered_sensor_bound(self):
        network, agents, milan, binder = self.build()
        agents["leaf0"].advertise(_sensor_description("t1", "leaf0"))
        network.sim.run_for(4.0)
        assert "t1" in binder.bound_sensors
        assert milan.application_satisfied()

    def test_departed_sensor_unbound_after_misses(self):
        network, agents, milan, binder = self.build()
        agents["leaf0"].advertise(_sensor_description("t1", "leaf0"))
        network.sim.run_for(4.0)
        assert "t1" in binder.bound_sensors
        agents["leaf0"].withdraw("t1")
        network.sim.run_for(10.0)
        assert "t1" not in binder.bound_sensors
        assert "t1" not in milan.sensors

    def test_multiple_sensors_and_events(self):
        network, agents, milan, binder = self.build()
        bound_events = []
        binder.events.on("sensor_bound", bound_events.append)
        agents["leaf0"].advertise(_sensor_description("t1", "leaf0", 0.85))
        agents["leaf1"].advertise(_sensor_description("t2", "leaf1", 0.95))
        network.sim.run_for(4.0)
        assert sorted(bound_events) == ["t1", "t2"]

    def test_non_milan_services_ignored(self):
        network, agents, milan, binder = self.build()
        plain = ServiceDescription("printer-1", "sensor", "leaf2:svc")  # no vars
        agents["leaf2"].advertise(plain)
        network.sim.run_for(4.0)
        assert binder.bound_sensors == set()

    def test_stop_halts_refreshes(self):
        network, agents, milan, binder = self.build()
        network.sim.run_for(3.0)
        binder.stop()
        count = binder.refreshes
        network.sim.run_for(10.0)
        assert binder.refreshes == count


class TestTamperedFrameRejection:
    """In-flight tampering: every mangled region must be rejected, counted,
    and must never reach the application receiver."""

    def pair(self):
        fabric = InMemoryFabric(latency_s=0.01)
        sender = SecureTransport(fabric.endpoint("a"), KEY)
        receiver = SecureTransport(fabric.endpoint("b"), KEY)
        received = []
        receiver.set_receiver(lambda src, data: received.append(data))
        return fabric, sender, receiver, received

    def deliver_tampered(self, mangle):
        """Send one sealed frame through ``mangle`` into the receiver."""
        fabric, sender, receiver, received = self.pair()
        captured = []
        fabric.endpoint("tap")  # keep fabric construction uniform
        sender.inner.set_receiver(lambda src, frame: None)  # quiet the echo
        frame = SecureChannel(KEY).seal("a", b"payload")
        receiver._on_frame(Address("a"), mangle(bytearray(frame)))
        return receiver, received, captured

    @pytest.mark.parametrize("region,offset", [
        ("nonce", 3),           # within the 12-byte nonce
        ("ciphertext", 14),     # first ciphertext byte
        ("tag", -4),            # within the trailing 16-byte tag
    ])
    def test_single_bit_flip_rejected_everywhere(self, region, offset):
        def flip(frame):
            frame[offset] ^= 0x01
            return bytes(frame)

        receiver, received, _ = self.deliver_tampered(flip)
        assert received == []
        assert receiver.auth_failures == 1

    def test_truncated_frame_rejected(self):
        receiver, received, _ = self.deliver_tampered(
            lambda frame: bytes(frame[: NONCE_BYTES + 3])
        )
        assert received == []
        assert receiver.auth_failures == 1

    def test_replayed_frame_still_authenticates(self):
        # This layer provides integrity, not replay protection (that is the
        # reliable layer's sequence numbering): a verbatim copy verifies.
        fabric, sender, receiver, received = self.pair()
        frame = SecureChannel(KEY).seal("a", b"payload")
        receiver._on_frame(Address("a"), frame)
        receiver._on_frame(Address("a"), frame)
        assert received == [b"payload", b"payload"]
        assert receiver.auth_failures == 0

    def test_in_flight_corruption_burst_never_leaks(self):
        """End to end over the simulated medium with the fault injector."""
        from repro.netsim import topology as topo
        from repro.netsim.failures import FailureInjector
        from repro.transport.simnet import SimFabric as Fabric

        network = topo.star(2, radius=40, radio_profile=IDEAL_RADIO)
        fabric = Fabric(network)
        sender = SecureTransport(fabric.endpoint("leaf0", "app"), KEY)
        receiver = SecureTransport(fabric.endpoint("leaf1", "app"), KEY)
        received = []
        receiver.set_receiver(lambda src, data: received.append(data))
        injector = FailureInjector(network, seed=7)
        corruptor = injector.corrupt_frames_at(0.0, duration=10.0,
                                               probability=1.0,
                                               only_ports=("app",))
        destination = receiver.local_address
        for i in range(20):
            network.sim.schedule_at(
                0.1 + i * 0.1, sender.send, destination, b"m%d" % i
            )
        network.sim.run_until(12.0)
        # Every frame was mangled in flight: nothing may be delivered, and
        # every arrival must be counted as an authentication failure.
        assert received == []
        assert receiver.auth_failures > 0
        assert corruptor.corrupted + corruptor.truncated == 20
        assert receiver.auth_failures + corruptor.truncated >= 20
