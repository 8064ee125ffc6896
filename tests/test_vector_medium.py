"""Scalar/vector medium-backend equivalence — the vectorization contract.

The numpy-vectorized position index (:mod:`repro.netsim.vecindex`) is only
allowed to change *speed*: every test here runs an identical seeded world
once per backend and requires **byte-identical** results — neighbor lists
(values and order), full delivery traces (times, receivers, order), chaos
scorecards, and simtest explorations. Any divergence is a bug in the
vector backend by definition, because the scalar path is the reference.

numpy-dependent tests skip cleanly when the ``[scale]`` extra is absent.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.netsim import medium as medium_module, vecindex
from repro.netsim.energy import Battery, RadioEnergyModel
from repro.netsim.medium import VECTOR_FROM_NODES, RadioProfile, WirelessMedium
from repro.netsim.mobility import LinearMobility, PathMobility
from repro.netsim.network import Network
from repro.netsim.packet import BROADCAST, Packet
from repro.netsim.simulator import Simulator
from repro.netsim.topology import grid as topology_grid, random_geometric
from repro.util.geometry import Point

needs_numpy = pytest.mark.skipif(
    not vecindex.available(), reason="numpy not installed ([scale] extra)"
)

#: Contention-free so the batched delivery path is exercised; lossy so the
#: per-receiver RNG stream must line up between backends.
LOSSY_FLAT = RadioProfile(
    name="lossy-flat", bandwidth_bps=11e6, range_m=100.0,
    base_latency_s=0.001, loss_probability=0.05, contention_window_s=0.0,
)
#: Contention on: per-receiver uniform backoff draws interleave with loss
#: draws, the strictest RNG-stream alignment check.
LOSSY_CONTENDED = RadioProfile(
    name="lossy-contended", bandwidth_bps=11e6, range_m=100.0,
    base_latency_s=0.001, loss_probability=0.05, contention_window_s=0.002,
)


def _run_grid_world(vectorized, profile, rows=3, cols=3, spacing=60.0):
    """A 3x3 world with mixed mobility running a broadcast+unicast workload.

    Returns the full delivery trace [(time, receiver, source, payload)].
    """
    network = topology_grid(rows, cols, spacing=spacing,
                            radio_profile=profile, seed=11,
                            vectorized=vectorized)
    sim = network.sim
    trace = []

    def on_packet(node, packet):
        trace.append((sim.now(), node.node_id, packet.source, packet.payload))

    for node in network.nodes():
        node.set_packet_handler(on_packet)
    # One drifter with closed-form kinematics, one on a waypoint path (the
    # vector backend's per-node fallback class).
    network.node("n0_0").set_mobility(LinearMobility(
        start=Point(0.0, 0.0), velocity=(4.0, 2.0), start_time=0.0))
    network.node("n2_2").set_mobility(PathMobility(
        waypoints=[Point(2 * spacing, 2 * spacing),
                   Point(spacing, 2 * spacing),
                   Point(spacing, spacing)],
        speed=10.0, start_time=0.0))

    detached = set()

    def detach(node_id):
        detached.add(node_id)
        network.medium.detach(node_id)

    def beacon(sender_id, payload):
        if sender_id not in detached:
            network.medium.transmit(sender_id, Packet(
                source=sender_id, destination=BROADCAST,
                payload=payload, payload_bytes=24))

    def unicast(sender_id, dest_id, payload):
        if sender_id not in detached:
            network.medium.transmit(sender_id, Packet(
                source=sender_id, destination=dest_id,
                payload=payload, payload_bytes=24))

    ids = network.node_ids()
    for step in range(40):
        when = 0.1 + step * 0.37
        sender = ids[step % len(ids)]
        if step % 3 == 0:
            sim.schedule_at(when, unicast, sender,
                            ids[(step * 5 + 1) % len(ids)], f"u{step}")
        else:
            sim.schedule_at(when, beacon, sender, f"b{step}")
    # Mid-run churn: a detach and a crash, both position-index mutations.
    # (Unicasts aimed at the detached node just count a drop; sends *from*
    # it are suppressed above, since transmitting while unattached raises.)
    sim.schedule_at(5.0, detach, "n1_0")
    sim.schedule_at(7.0, network.node("n0_1").crash)
    sim.run()
    return trace


def _run_random_world(vectorized):
    """200 nodes, mixed static/mobile, random workload; returns the trace."""
    network = random_geometric(200, area=(400.0, 400.0),
                               radio_profile=LOSSY_FLAT, seed=5,
                               vectorized=vectorized)
    sim = network.sim
    trace = []

    def on_packet(node, packet):
        trace.append((sim.now(), node.node_id, packet.source, packet.payload))

    nodes = network.nodes()
    for index, node in enumerate(nodes):
        node.set_packet_handler(on_packet)
        if index % 7 == 0:
            node.set_mobility(LinearMobility(
                start=node.position,
                velocity=(1.0 + index * 0.01, -0.5), start_time=0.0))
    detached = set()

    def detach(node_id):
        detached.add(node_id)
        network.medium.detach(node_id)

    def send(sender, packet):
        if sender not in detached:
            network.medium.transmit(sender, packet)

    workload_rng = random.Random(99)
    ids = network.node_ids()
    for step in range(150):
        when = 0.05 + step * 0.11
        sender = workload_rng.choice(ids)
        if workload_rng.random() < 0.3:
            dest = workload_rng.choice(ids)
            packet = Packet(source=sender, destination=dest,
                            payload=f"u{step}", payload_bytes=32)
        else:
            packet = Packet(source=sender, destination=BROADCAST,
                            payload=f"b{step}", payload_bytes=32)
        sim.schedule_at(when, send, sender, packet)
    for victim in ("n13", "n77", "n140"):
        sim.schedule_at(8.0, detach, victim)
    sim.run()
    return trace


def _run_growing_world(vectorized, before_run, joiners=0, shrink_to=None):
    """A world that grows across :data:`VECTOR_FROM_NODES` (or shrinks).

    ``before_run`` nodes are attached before the run, ``joiners`` more at
    t = 4, 4.5, ... while node n0 drifts under :class:`LinearMobility`;
    with ``shrink_to``, nodes are detached from the end at t = 9 until
    that many are left. Returns the delivery trace and the backend in use
    at t = 3 (before any joiner), at t = 8 and at the end.
    """
    network = Network(radio_profile=LOSSY_FLAT, seed=3, vectorized=vectorized)
    sim, medium = network.sim, network.medium
    trace, backends = [], []
    attached = []

    def on_packet(node, packet):
        trace.append((sim.now(), node.node_id, packet.source, packet.payload))

    def join(index):
        node_id = f"n{index}"
        network.add_node(node_id, position=Point(
            index % 8 * 40.0, index // 8 * 40.0)).set_packet_handler(on_packet)
        attached.append(node_id)

    for index in range(before_run):
        join(index)
    network.node("n0").set_mobility(LinearMobility(
        start=Point(0.0, 0.0), velocity=(9.0, 6.0), start_time=0.0))
    for k in range(joiners):
        sim.schedule_at(4.0 + 0.5 * k, join, before_run + k)
    if shrink_to is not None:
        def shrink():
            while len(attached) > shrink_to:
                medium.detach(attached.pop())
        sim.schedule_at(9.0, shrink)
    for when in (3.0, 8.0):
        sim.schedule_at(when, lambda: backends.append(medium.vectorized))

    workload_rng = random.Random(17)

    def send(step):
        sender = workload_rng.choice(attached)
        if workload_rng.random() < 0.3:
            destination = workload_rng.choice(attached)
        else:
            destination = BROADCAST
        medium.transmit(sender, Packet(source=sender, destination=destination,
                                       payload=f"p{step}", payload_bytes=24))

    for step in range(160):
        sim.schedule_at(0.05 + step * 0.083, send, step)
    sim.run()
    return trace, backends + [medium.vectorized]


@needs_numpy
class TestDefaultMediumMovesToTheVectorIndex:
    """A default medium starts scalar and moves once, at the constant.

    Each case runs the same world three ways, default, forced scalar and
    forced vector, and needs byte-identical delivery traces.
    """

    @staticmethod
    def three_ways(**world):
        runs = {flag: _run_growing_world(flag, **world)
                for flag in (None, False, True)}
        trace = runs[None][0]
        assert len(trace) > 1000, "workload too small; test is vacuous"
        assert runs[False][0] == trace
        assert runs[True][0] == trace
        return runs[None][1]

    def test_every_node_attached_before_the_run(self):
        assert self.three_ways(before_run=VECTOR_FROM_NODES + 4) == [
            True, True, True]

    def test_crossing_node_attached_while_a_node_moves(self):
        backends = self.three_ways(before_run=VECTOR_FROM_NODES - 1,
                                   joiners=4)
        assert backends == [False, True, True]

    def test_shrinking_below_the_constant_stays_vectorized(self):
        backends = self.three_ways(before_run=VECTOR_FROM_NODES - 1,
                                   joiners=4, shrink_to=VECTOR_FROM_NODES // 2)
        assert backends == [False, True, True]


class TestSmallWorldsNeverLoadNumpy:
    """``import repro`` and a small default world leave numpy unloaded."""

    SCRIPT = """
import sys
import repro, repro.workloads, repro.core.milan, repro.netsim.topology
from repro.netsim.packet import BROADCAST, Packet
network = repro.netsim.topology.grid(3, 3)
for node_id in network.node_ids():
    network.sim.call_later(0.1, network.medium.transmit, node_id, Packet(
        source=node_id, destination=BROADCAST, payload=b"x", payload_bytes=8))
network.sim.run()
assert network.sim.events_processed > 0 and network.medium.deliveries > 0
assert not network.medium.vectorized
assert "numpy" not in sys.modules, "a small world loaded numpy"
"""

    def test_imports_and_a_small_world_leave_numpy_unloaded(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    @needs_numpy
    def test_a_world_of_the_constant_size_is_vectorized(self):
        assert topology_grid(1, VECTOR_FROM_NODES).medium.vectorized


@needs_numpy
class TestDeliveryTraceEquivalence:
    def test_grid_world_contention_free(self):
        scalar = _run_grid_world(False, LOSSY_FLAT)
        vector = _run_grid_world(True, LOSSY_FLAT)
        assert scalar, "workload produced no deliveries; test is vacuous"
        assert vector == scalar

    def test_grid_world_with_contention(self):
        scalar = _run_grid_world(False, LOSSY_CONTENDED)
        vector = _run_grid_world(True, LOSSY_CONTENDED)
        assert scalar
        assert vector == scalar

    def test_200_node_random_world(self):
        scalar = _run_random_world(False)
        vector = _run_random_world(True)
        assert len(scalar) > 500
        assert vector == scalar


@needs_numpy
class TestNeighborQueryEquivalence:
    def test_ordered_neighbor_lists_match_over_time(self):
        """Same ids, same (attachment) order, at many timestamps."""
        worlds = [
            random_geometric(120, area=(300.0, 300.0),
                             radio_profile=LOSSY_FLAT, seed=3,
                             vectorized=flag)
            for flag in (False, True)
        ]
        for network in worlds:
            for index, node in enumerate(network.nodes()):
                if index % 5 == 0:
                    node.set_mobility(LinearMobility(
                        start=node.position, velocity=(2.0, 1.0),
                        start_time=0.0))
        scalar_net, vector_net = worlds
        assert not scalar_net.medium.vectorized
        assert vector_net.medium.vectorized
        for step in range(25):
            when = step * 0.41
            scalar_net.sim._now = when
            vector_net.sim._now = when
            for node_id in ("n0", "n17", "n63", "n119"):
                scalar_ids = [
                    n.node_id for n in scalar_net.medium.neighbors_of(node_id)
                ]
                vector_ids = [
                    n.node_id for n in vector_net.medium.neighbors_of(node_id)
                ]
                assert vector_ids == scalar_ids, (
                    f"divergence at t={when} around {node_id}"
                )

    def test_boundary_distance_exactly_range(self):
        """Nodes at *exactly* radio range are in range in both backends.

        This is the 1-ulp trap the squared-distance contract exists for:
        both backends must compute ``dx*dx + dy*dy <= r*r`` with the same
        operation order, so an exact-boundary neighbor can never flicker
        between backends.
        """
        for flag in (False, True):
            sim = Simulator()
            medium = WirelessMedium(sim, LOSSY_FLAT, seed=0, vectorized=flag)
            network = Network(sim=sim, radio_profile=LOSSY_FLAT, seed=0,
                              vectorized=flag)
            origin = network.add_node("origin", position=Point(0.0, 0.0))
            # 100 m away at an awkward angle: 60/80 scales of a 3-4-5.
            network.add_node("edge", position=Point(60.0, 80.0))
            network.add_node("beyond", position=Point(60.0, 80.1))
            ids = [n.node_id for n in network.medium.neighbors_of("origin")]
            assert ids == ["edge"], f"backend vectorized={flag} got {ids}"


@needs_numpy
class TestVectorIndexInternals:
    def test_compaction_preserves_attach_order(self):
        index = vecindex.VectorPositionIndex(cell_size=100.0)
        sim = Simulator()

        class FakeNode:
            __slots__ = ("node_id", "position", "mobility")

            def __init__(self, node_id, x, y):
                self.node_id = node_id
                self.position = Point(x, y)
                self.mobility = None

        nodes = [FakeNode(f"m{i}", float(i % 13), float(i % 7))
                 for i in range(200)]
        for node in nodes:
            index.insert(node)
        # Remove enough to trip compaction (dead > 64 and dead > live).
        for node in nodes[:140]:
            index.remove(node.node_id)
        assert len(index) == 60
        found = index.query_circle_ordered(0.0, 0.0, 50.0)
        assert found == nodes[140:]

    def test_forcing_vector_without_numpy_is_an_error(self, monkeypatch):
        monkeypatch.setattr(vecindex, "_np", None)
        assert not vecindex.available()
        with pytest.raises(ConfigurationError, match="numpy"):
            WirelessMedium(Simulator(), LOSSY_FLAT, vectorized=True)


class TestScalarFallback:
    """The pure-Python path must stand alone (no numpy at all)."""

    def test_scalar_backend_explicitly(self):
        trace = _run_grid_world(False, LOSSY_FLAT)
        assert trace

    def test_auto_without_numpy_falls_back(self, monkeypatch):
        monkeypatch.setattr(vecindex, "_np", None)
        network = Network(radio_profile=LOSSY_FLAT)
        for index in range(VECTOR_FROM_NODES + 1):
            network.add_node(f"n{index}", position=Point(float(index), 0.0))
        assert not network.medium.vectorized


@needs_numpy
class TestChaosScorecardEquivalence:
    """A full chaos campaign is backend-invariant, byte for byte."""

    @pytest.mark.chaos
    def test_churn_campaign_scorecards_identical(self, monkeypatch):
        from repro.netsim.chaos import run_campaign, scorecard_bytes

        short = dict(duration_s=40.0, heal_deadline_s=24.0, fault_start_s=5.0,
                     bulk_messages=60, transfer_stop_s=22.0)
        # The campaign's worlds are small: with the constant at 1 every
        # default medium it builds moves to the vector index at its first
        # attach, and without numpy none does.
        monkeypatch.setattr(medium_module, "VECTOR_FROM_NODES", 1)
        vector = scorecard_bytes(run_campaign("churn", 2, **short))
        monkeypatch.setattr(vecindex, "_np", None)
        scalar = scorecard_bytes(run_campaign("churn", 2, **short))
        assert vector == scalar


@needs_numpy
class TestSimtestOnVectorBackend:
    """Schedule exploration (tie-breaker installed) over the vector path."""

    @pytest.mark.simtest
    def test_explorer_smoke_is_clean(self, monkeypatch):
        from repro.simtest.explorer import explore

        # Every default medium moves to the vector index at its first attach.
        monkeypatch.setattr(medium_module, "VECTOR_FROM_NODES", 1)
        report = explore(5, seed=0)
        assert report.ok
        assert report.runs == 5
        assert report.totals["events"] > 0


class TestDeliveryBatching:
    """Same-tick broadcast deliveries fold into one scheduler entry."""

    def _beacon_world(self):
        network = topology_grid(3, 3, spacing=60.0,
                                radio_profile=RadioProfile(
                                    name="flat", bandwidth_bps=11e6,
                                    range_m=100.0, base_latency_s=0.001),
                                seed=0, vectorized=False)
        got = []
        for node in network.nodes():
            node.set_packet_handler(lambda n, p: got.append(n.node_id))
        return network, got

    def test_contention_free_broadcast_is_one_event(self):
        network, got = self._beacon_world()
        network.medium.transmit("n1_1", Packet(
            source="n1_1", destination=BROADCAST, payload=b"x",
            payload_bytes=8))
        network.sim.run()
        assert len(got) == 8  # all 8 of a 3x3 at 60 m are within 100 m
        assert network.sim.events_processed == 1

    def test_tie_breaker_disables_batching(self):
        # Schedule exploration interleaves same-time deliveries, so with a
        # tie-breaker installed each reception must be its own entry.
        network, got = self._beacon_world()
        network.sim.set_tie_breaker(lambda: 0)
        network.medium.transmit("n1_1", Packet(
            source="n1_1", destination=BROADCAST, payload=b"x",
            payload_bytes=8))
        network.sim.run()
        assert len(got) == 8
        assert network.sim.events_processed == 8

    def test_batched_and_unbatched_orders_agree(self):
        batched_network, batched = self._beacon_world()
        unbatched_network, unbatched = self._beacon_world()
        unbatched_network.sim.set_tie_breaker(lambda: 0)
        for network in (batched_network, unbatched_network):
            network.medium.transmit("n1_1", Packet(
                source="n1_1", destination=BROADCAST, payload=b"x",
                payload_bytes=8))
            network.sim.run()
        assert batched == unbatched


#: Lossless and contention-free: every broadcast is one batch, and the
#: receiver sets below are exact.
FLAT = RadioProfile(name="flat", bandwidth_bps=11e6, range_m=100.0,
                    base_latency_s=0.001)
#: What the stock radio charges to hear one 8-byte-payload frame.
RX_JOULES = RadioEnergyModel().rx_cost((8 + 16) * 8)
#: n1_1's neighbours in attachment order: the receivers of its beacons.
RING = ["n0_0", "n0_1", "n0_2", "n1_0", "n1_2", "n2_0", "n2_1", "n2_2"]

BACKENDS = [pytest.param(False, id="scalar"),
            pytest.param(True, id="vector", marks=needs_numpy)]


def _one_joule(_node_id):
    return Battery(capacity=1.0)


class _World:
    """A 3x3 grid at 60 m pitch (all of RING hears n1_1) with a logbook."""

    def __init__(self, vectorized, per_receiver, battery_factory):
        self.network = topology_grid(
            3, 3, spacing=60.0, radio_profile=FLAT, seed=0,
            vectorized=vectorized, battery_factory=battery_factory)
        self.sim, self.medium = self.network.sim, self.network.medium
        if per_receiver:
            # A constant tie-breaker keeps scheduling order but makes the
            # medium give every reception a queue entry of its own.
            self.sim.set_tie_breaker(lambda: 0)
        self.calls = []
        self.depleted = []
        for node in self.network.nodes():
            node.set_packet_handler(self.on_packet)
            node.events.on(
                "depleted", lambda n: self.depleted.append(n.node_id))

    def on_packet(self, node, packet):
        self.calls.append((self.sim.now(), node.node_id, packet.source,
                           packet.payload, packet.payload_bytes))

    def frame(self, source, destination=BROADCAST):
        return Packet(source=source, destination=destination, payload=b"x",
                      payload_bytes=8)

    def beacon(self, sender_id="n1_1"):
        self.medium.transmit(sender_id, self.frame(sender_id))

    def heard(self):
        return [call[1] for call in self.calls]

    def snapshot(self):
        medium = self.medium
        return {
            "calls": list(self.calls),
            "depleted": list(self.depleted),
            "medium": {name: getattr(medium, name) for name in (
                "transmissions", "deliveries", "bytes_transmitted",
                "drops_out_of_range", "drops_loss", "drops_dead",
                "drops_partitioned", "drops_faulted")},
            # Floats are compared with ==: the drains must be the same
            # subtractions in the same order, not merely close.
            "nodes": {node.node_id: (node.packets_received,
                                     node.bytes_received,
                                     node.battery.remaining, node.alive)
                      for node in self.network.nodes()},
        }


def _column_batteries(node_id):
    # A node in column c can pay for c + 1.5 receptions; n1_1 only sends.
    if node_id == "n1_1":
        return Battery(capacity=float("inf"))
    return Battery(capacity=RX_JOULES * (int(node_id[-1]) + 1.5))


def _deplete_mid_batch(world):
    """(a) receivers run flat in the middle of a batch, column by column."""
    for round_index in range(4):
        world.sim.schedule_at(0.1 + round_index, world.beacon)
    world.sim.run()
    # Round 1 reaches all eight; round 2 kills column 0 and reaches the
    # other five; round 3 kills column 1 and reaches column 2; round 4
    # kills column 2. A flat node is not a receiver of later rounds.
    assert world.medium.deliveries == 8 + 5 + 3
    assert world.medium.drops_dead == 3 + 2 + 3
    assert sorted(world.depleted) == sorted(RING)  # "depleted" once each
    assert all(world.network.node(node_id).battery.remaining == 0.0
               for node_id in RING)


def _crash_later_receiver(world):
    """(b) receiver k's handler runs before receiver k+1's liveness test."""
    victim = world.network.node("n2_2")

    def crash_the_last(node, packet):
        world.on_packet(node, packet)
        victim.crash()

    world.network.node("n0_1").set_packet_handler(crash_the_last)
    world.beacon()
    world.sim.run()
    assert world.heard() == RING[:-1]
    assert world.medium.deliveries == 7 and world.medium.drops_dead == 1
    assert victim.battery.remaining == 1.0  # a crashed radio draws nothing


def _fault_hook(world):
    """(c) a delivery fault that swallows, rewrites and passes frames."""

    def fault(receiver_id, packet):
        if receiver_id == "n0_1":
            return None
        if receiver_id == "n1_0":
            return Packet(packet.source, packet.destination, b"mangled",
                          packet.payload_bytes + 4)
        return packet

    world.medium.set_delivery_fault(fault)
    world.beacon()
    world.sim.run()
    assert world.heard() == [n for n in RING if n != "n0_1"]
    assert world.medium.deliveries == 7 and world.medium.drops_faulted == 1
    swallowed = world.network.node("n0_1")
    assert swallowed.packets_received == 0
    assert swallowed.battery.remaining == 1.0 - RX_JOULES  # heard, then lost
    # The counters see the frame the hook handed on, not the one sent.
    assert world.network.node("n1_0").bytes_received == 8 + 4 + 16
    assert world.network.node("n1_2").bytes_received == 8 + 16


def _handler_raises(world):
    """(d) a raising handler aborts the run, not the bookkeeping."""

    def boom(node, packet):
        raise RuntimeError("handler bug")

    world.network.node("n0_2").set_packet_handler(boom)
    world.beacon()
    with pytest.raises(RuntimeError, match="handler bug"):
        world.sim.run()
    # Three receptions were made (the third is the one that raised).
    assert world.medium.deliveries == 3 and world.medium.drops_dead == 0
    assert [world.network.node(node_id).packets_received
            for node_id in RING] == [1, 1, 1, 0, 0, 0, 0, 0]


def _singles(world):
    """(e) a unicast is a batch of one through the same routine; one to a
    crashed node, or to an id the medium never attached, is a dead drop."""
    transmit = world.medium.transmit
    world.sim.schedule_at(0.1, transmit, "n0_0", world.frame("n0_0", "n0_1"))
    world.network.node("n2_0").crash()
    world.sim.schedule_at(0.2, transmit, "n2_1", world.frame("n2_1", "n2_0"))
    world.sim.run()
    assert world.heard() == ["n0_1"]
    assert world.medium.deliveries == 1 and world.medium.drops_dead == 1
    node = world.network.node("n0_1")
    assert node.battery.remaining == 1.0 - RX_JOULES
    assert (node.packets_received, node.bytes_received) == (1, 24)
    # Never attached: nothing is scheduled, and the sender — who cannot
    # know how far away nobody is — pays for full radio range.
    sender = world.network.node("n1_1")
    assert transmit("n1_1", world.frame("n1_1", "elsewhere")) is True
    assert world.medium.drops_dead == 2 and world.sim.pending_events() == 0
    assert sender.battery.remaining == 1.0 - sender.radio.tx_cost(
        24 * 8, FLAT.range_m)


SCENARIOS = [
    pytest.param(_deplete_mid_batch, _column_batteries, id="deplete-mid-batch"),
    pytest.param(_crash_later_receiver, _one_joule, id="crash-later-receiver"),
    pytest.param(_fault_hook, _one_joule, id="fault-hook"),
    pytest.param(_handler_raises, _one_joule, id="handler-raises"),
    pytest.param(_singles, _one_joule, id="singles"),
]


@pytest.mark.parametrize("drive, batteries", SCENARIOS)
class TestReceptionPathEquivalence:
    """One reception routine: a batch of N and N batches of one agree.

    Each scenario runs once with contention-free batching and once with a
    tie-breaker forcing one queue entry per reception, and must leave the
    same handler-call order, medium counters, per-node counters and
    battery charges (``==`` on the floats) behind.
    """

    @pytest.mark.parametrize("vectorized", BACKENDS)
    def test_batched_and_per_receiver_agree(self, vectorized, drive, batteries):
        batched = _World(vectorized, False, batteries)
        per_receiver = _World(vectorized, True, batteries)
        drive(batched)
        drive(per_receiver)
        assert batched.snapshot() == per_receiver.snapshot()
        assert (batched.sim.events_processed
                <= per_receiver.sim.events_processed)

    @needs_numpy
    def test_backends_agree(self, drive, batteries):
        scalar = _World(False, False, batteries)
        vector = _World(True, False, batteries)
        drive(scalar)
        drive(vector)
        assert scalar.snapshot() == vector.snapshot()
