"""The medium's position index, held to pinned traces and a full scan.

The index may only ever change *speed*: each seeded world here must
reproduce a pinned sha256 of its full delivery trace (times, receivers,
order) or chaos scorecard, neighbour lists must be what a scan of every
attached node says (values and order), and the reception paths must leave
the same state behind when the index is swapped for that scan.
"""

import hashlib
import importlib.util
import random
from pathlib import Path

import pytest

from repro.netsim.energy import Battery, RadioEnergyModel
from repro.netsim.medium import RadioProfile
from repro.netsim.mobility import LinearMobility, PathMobility
from repro.netsim.network import Network
from repro.netsim.packet import BROADCAST, Packet
from repro.netsim.topology import grid as topology_grid
from repro.util.geometry import Point
from tests import e2e_workloads
from tests.netsim_fixtures import detach, random_geometric
from tests.test_spatialindex import ScanIndex, scan

_SCALE = Path(__file__).resolve().parent.parent / "benchmarks" / "scale.py"

#: Contention-free so the batched delivery path is exercised; lossy so the
#: every reception draws from the loss stream.
LOSSY_FLAT = RadioProfile(
    name="lossy-flat", bandwidth_bps=11e6, range_m=100.0,
    base_latency_s=0.001, loss_probability=0.05, contention_window_s=0.0,
)
#: Contention on: per-receiver uniform backoff draws interleave with loss
#: draws, the strictest RNG-stream check.
LOSSY_CONTENDED = RadioProfile(
    name="lossy-contended", bandwidth_bps=11e6, range_m=100.0,
    base_latency_s=0.001, loss_probability=0.05, contention_window_s=0.002,
)


def _digest(trace):
    return hashlib.sha256(repr(trace).encode()).hexdigest()


def _run_grid_world(profile, rows=3, cols=3, spacing=60.0):
    """A 3x3 world with mixed mobility running a broadcast+unicast workload.

    Returns the full delivery trace [(time, receiver, source, payload)].
    """
    network = topology_grid(rows, cols, spacing=spacing,
                            radio_profile=profile, seed=11)
    sim = network.sim
    trace = []

    def on_packet(node, packet):
        trace.append((sim.now(), node.node_id, packet.source, packet.payload))

    for node in network.nodes():
        node.set_packet_handler(on_packet)
    # One drifter with closed-form kinematics, one on a waypoint path (a
    # mover asked through position_at).
    network.node("n0_0").set_mobility(LinearMobility(
        start=Point(0.0, 0.0), velocity=(4.0, 2.0), start_time=0.0))
    network.node("n2_2").set_mobility(PathMobility(
        waypoints=[Point(2 * spacing, 2 * spacing),
                   Point(spacing, 2 * spacing),
                   Point(spacing, spacing)],
        speed=10.0, start_time=0.0))

    detached = set()

    def take_off(node_id):
        detached.add(node_id)
        detach(network.medium, node_id)

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
    sim.schedule_at(5.0, take_off, "n1_0")
    sim.schedule_at(7.0, network.node("n0_1").crash)
    sim.run()
    return trace


def _run_random_world():
    """200 nodes, mixed static/mobile, random workload; returns the trace."""
    network = random_geometric(200, area=(400.0, 400.0),
                               radio_profile=LOSSY_FLAT, seed=5)
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

    def take_off(node_id):
        detached.add(node_id)
        detach(network.medium, node_id)

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
        sim.schedule_at(8.0, take_off, victim)
    sim.run()
    return trace


class TestDeliveryTraceEquivalence:
    """Each world's delivery trace is the pinned one, byte for byte."""

    def test_grid_world_contention_free(self):
        trace = _run_grid_world(LOSSY_FLAT)
        assert len(trace) == 114
        assert _digest(trace) == (
            "65705e5f7c5739cda62b272940362d496a5e231ba4244b203379f1ae3c72fbee")

    def test_grid_world_with_contention(self):
        trace = _run_grid_world(LOSSY_CONTENDED)
        assert len(trace) == 117
        assert _digest(trace) == (
            "f24ae4ea548ed36ff547a97ec92e27d0a5afa67929537664a2d7700fd6a42e14")

    def test_200_node_random_world(self):
        trace = _run_random_world()
        assert len(trace) == 2955
        assert _digest(trace) == (
            "2290e0720b969e1140e53d6aeea83a80bde06ec441f6fc6c6a20c0442114d703")


    @pytest.mark.parametrize("seed, digest", [
        (0, "e18dcbe1df29aaa9af9332d830c049fcc47ca75f587080068d2520c5c0517b6c"),
        (1, "946a10217cb2403192a27f261a9af7254cef70788fd633deeaab06bde03ba3f5"),
        (2, "14978c8cb73e219fd6b0cccd1a5f29193da1118dfc2d323595b933943769d3d2"),
    ])
    def test_swarm_beacon_smoke(self, seed, digest):
        """The benchmark's own 144-node swarm, one node in ten drifting."""
        workload = e2e_workloads.load().build("swarm_beacon", seed, smoke=True)
        workload.run()
        assert workload.outcome()["digest"] == digest

    def test_scale_curve_worlds(self):
        """``benchmarks/scale.py``'s 100, 1k and 10k-node worlds, one
        round each, against the digests its gate pins."""
        spec = importlib.util.spec_from_file_location("scale", _SCALE)
        scale = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scale)
        for label, side in scale.CURVE:
            point = scale.run_world(side, 1)
            assert point["trace_sha256"] == scale.TRACE_SHA256[label, 1], label

    def test_the_100k_ratio_divides_equal_rounds(self, monkeypatch):
        """``ns_ratio_vs_10k`` is the 100k point's ns/event over a 10k run
        with its own rounds and tracing, not over the traced two-round
        curve point."""
        spec = importlib.util.spec_from_file_location("scale", _SCALE)
        scale = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scale)
        labels = {side: label for label, side in [*scale.CURVE, scale.POINT_100K]}
        runs = []

        def fake_run_world(side, rounds, seed=0, trace=True):
            # A distinct cost per (side, rounds, trace) names the divisor.
            runs.append({"side": side, "rounds": rounds, "trace": trace,
                         "ns_per_event": 1000.0 + side + 100 * rounds + 50 * trace})
            return dict(runs[-1], nodes=side * side, events=1, wall_s=1.0,
                        trace_sha256=None)

        monkeypatch.setattr(scale, "run_world", fake_run_world)
        ops, _ = scale.run_curve()
        *before, point = runs
        assert labels[point["side"]] == "scale_100k"
        ratio = ops["scale_100k"]["ns_ratio_vs_10k"]
        (divisor,) = [run for run in before if labels[run["side"]] == "scale_10k"
                      and round(point["ns_per_event"] / run["ns_per_event"], 2)
                      == ratio]
        assert (divisor["rounds"], divisor["trace"]) == (
            point["rounds"], point["trace"])


class TestNeighborQueryEquivalence:
    def test_ordered_neighbor_lists_match_over_time(self):
        """What a scan says: same ids, same (attachment) order, at many
        timestamps, with one node in five drifting."""
        network = random_geometric(120, area=(300.0, 300.0),
                                   radio_profile=LOSSY_FLAT, seed=3)
        for index, node in enumerate(network.nodes()):
            if index % 5 == 0:
                node.set_mobility(LinearMobility(
                    start=node.position, velocity=(2.0, 1.0), start_time=0.0))
        medium = network.medium
        for step in range(25):
            network.sim._now = step * 0.41
            for node_id in ("n0", "n17", "n63", "n119"):
                origin = network.node(node_id)
                expected = [node for node in scan(
                    medium.nodes(), origin.position, LOSSY_FLAT.range_m,
                ) if node is not origin]
                assert medium.neighbors_of(node_id) == expected, (
                    f"divergence at t={network.sim.now()} around {node_id}")

    def test_boundary_distance_exactly_range(self):
        """A node at *exactly* radio range is in range: the squared
        compare ``dx*dx + dy*dy <= r*r`` is inclusive."""
        network = Network(radio_profile=LOSSY_FLAT, seed=0)
        network.add_node("origin", position=Point(0.0, 0.0))
        # 100 m away at an awkward angle: 60/80 scales of a 3-4-5.
        network.add_node("edge", position=Point(60.0, 80.0))
        network.add_node("beyond", position=Point(60.0, 80.1))
        ids = [n.node_id for n in network.medium.neighbors_of("origin")]
        assert ids == ["edge"]


class TestChaosScorecardEquivalence:
    """A full chaos campaign reproduces its pinned scorecard."""

    @pytest.mark.chaos
    def test_churn_campaign_scorecards_identical(self):
        from repro.netsim.chaos import run_campaign, scorecard_bytes

        short = dict(duration_s=40.0, heal_deadline_s=24.0, fault_start_s=5.0,
                     bulk_messages=60, transfer_stop_s=22.0)
        card = scorecard_bytes(run_campaign("churn", 2, **short))
        assert hashlib.sha256(card).hexdigest() == (
            "383c5d1749f0702b47fef061f7dabc5572657830f1e587becc3733e091ebeb7a")


class TestDeliveryBatching:
    """Same-tick broadcast deliveries fold into one scheduler entry."""

    def _beacon_world(self):
        network = topology_grid(3, 3, spacing=60.0,
                                radio_profile=RadioProfile(
                                    name="flat", bandwidth_bps=11e6,
                                    range_m=100.0, base_latency_s=0.001),
                                seed=0)
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

def _one_joule(_node_id):
    return Battery(capacity=1.0)


class _World:
    """A 3x3 grid at 60 m pitch (all of RING hears n1_1) with a logbook."""

    def __init__(self, per_receiver, battery_factory, scanned=False):
        self.network = topology_grid(
            3, 3, spacing=60.0, radio_profile=FLAT, seed=0,
            battery_factory=battery_factory)
        self.sim, self.medium = self.network.sim, self.network.medium
        if scanned:
            # The index swapped for a scan of every node, in attach order.
            self.medium._index = ScanIndex()
            for node in self.medium.nodes():
                self.medium._index.insert(node)
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
    assert world.medium.drops_dead == 2 and world.sim._live == 0
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

    def test_batched_and_per_receiver_agree(self, drive, batteries):
        batched = _World(False, batteries)
        per_receiver = _World(True, batteries)
        drive(batched)
        drive(per_receiver)
        assert batched.snapshot() == per_receiver.snapshot()
        assert (batched.sim.events_processed
                <= per_receiver.sim.events_processed)

    def test_backends_agree(self, drive, batteries):
        """The index and a scan of every node standing in for it."""
        indexed = _World(False, batteries)
        scanned = _World(False, batteries, scanned=True)
        drive(indexed)
        drive(scanned)
        assert indexed.snapshot() == scanned.snapshot()
