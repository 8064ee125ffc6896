"""The medium's neighbour memo against the index it fronts.

A static origin remembers its static in-range nodes and every mover within
``range + skin``, for as long as no mover can have crossed the skin. The
memo may only ever change *cost*: after any interleaving of membership,
movement, mobility swaps, liveness changes, partitions and the passing of
time, ``neighbors_of`` must be exactly what a scan of every node says, and
a broadcast's receivers what the position index says when asked afresh —
same nodes, same order.

A unicast between two pinned nodes takes the same shortcut without a memo:
``transmit`` reads the two positions the nodes hold instead of going through
``Node.distance_to`` -> ``Node.position`` x2 -> ``Point.distance_to``. The
same interleavings hold it to the long way round: what the sender is
charged, whether the frame is out of range, and when it is heard.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.netsim.energy import Battery
from repro.netsim.medium import SKIN_FRACTION, RadioProfile, WirelessMedium
from repro.netsim.mobility import (
    LinearMobility,
    PathMobility,
    RandomWaypointMobility,
    StaticMobility,
    is_time_varying,
)
from repro.netsim.node import Node
from repro.netsim.packet import BROADCAST, Packet
from repro.netsim.simulator import Simulator
from repro.util.geometry import Point
from tests.netsim_fixtures import detach, serialization_delay, set_position

#: Lossless and contention-free, so a broadcast's receivers are exactly the
#: audible, reachable nodes at the instant of transmission.
CLEAN = RadioProfile(name="clean", bandwidth_bps=11e6, range_m=100.0,
                     base_latency_s=0.001)

IDS = [f"n{i}" for i in range(5)]
#: A 25 m lattice: pairs exactly 100 m apart (the inclusive edge of the
#: range check) are common, and so are co-located nodes.
_coordinate = st.integers(min_value=0, max_value=8).map(lambda i: 25.0 * i)
_point = st.builds(Point, _coordinate, _coordinate)
_node_id = st.sampled_from(IDS)


@st.composite
def _mobility(draw, at: float):
    kind = draw(st.sampled_from(["static", "linear", "waypoint", "path"]))
    if kind == "static":
        return StaticMobility(draw(_point))
    if kind == "linear":
        velocity = (draw(st.sampled_from([-20.0, 0.0, 7.5])),
                    draw(st.sampled_from([-5.0, 0.0, 20.0])))
        # It may set off later: until then it stands at its start.
        delay = draw(st.sampled_from([0.0, 2.0]))
        return LinearMobility(start=draw(_point), velocity=velocity,
                              start_time=at + delay)
    if kind == "waypoint":
        return RandomWaypointMobility(
            area=(200.0, 200.0), seed=draw(st.integers(0, 3)),
            speed_range=(5.0, 20.0))
    return PathMobility(waypoints=[draw(_point), draw(_point)], speed=15.0,
                        start_time=at)


def fresh_neighbours(medium: WirelessMedium, node_id: str):
    """What the position index says right now, with today's filters."""
    origin = medium._nodes.get(node_id)
    if origin is None:
        return []
    position = origin.position
    return [
        node
        for node in medium._index.query_circle_ordered(
            position.x, position.y, medium.profile.range_m, medium.sim.now())
        if node is not origin and node.alive
        and not medium.partitioned(node_id, node.node_id)
    ]


def scanned_neighbours(medium: WirelessMedium, node_id: str):
    """The same answer from a scan of every attached node, in attach order,
    leaving the index and its bucketing alone."""
    origin = medium._nodes.get(node_id)
    if origin is None:
        return []
    here = origin.position
    r2 = medium.profile.range_m * medium.profile.range_m
    out = []
    for node in medium.nodes():
        there = node.position
        dx = there.x - here.x
        dy = there.y - here.y
        if (node is not origin and dx * dx + dy * dy <= r2 and node.alive
                and not medium.partitioned(node_id, node.node_id)):
            out.append(node)
    return out


def same_nodes(answer, reference) -> bool:
    return len(answer) == len(reference) and all(
        a is b for a, b in zip(answer, reference))


class NeighbourhoodMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.sim = Simulator()
        self.medium = WirelessMedium(self.sim, CLEAN, seed=0)
        self.tokens = []
        self.heard = []
        self.heard_at = []

    def _node(self, node_id):
        return self.medium._nodes.get(node_id)

    # ------------------------------------------------------------ membership

    @initialize(positions=st.lists(_point, min_size=3, max_size=3))
    def start_all_static(self, positions):
        """Most runs should spend their steps in the memo's regime."""
        for node_id, position in zip(IDS, positions):
            self._attach(node_id, position, None)

    def _attach(self, node_id, position, mobility):
        node = Node(node_id, self.sim, position=position,
                    battery=Battery(capacity=1.0), mobility=mobility)
        def hear(n, packet):
            self.heard.append(n.node_id)
            self.heard_at.append(self.sim.now())

        node.set_packet_handler(hear)
        self.medium.attach(node)

    @rule(node_id=_node_id, position=_point, data=st.data())
    def attach(self, node_id, position, data):
        if self._node(node_id) is None:
            self._attach(node_id, position, (
                data.draw(_mobility(self.sim.now()))
                if data.draw(st.booleans()) else None))

    @rule(node_id=_node_id)
    def detach(self, node_id):
        detach(self.medium, node_id)

    # -------------------------------------------------------------- movement

    @rule(node_id=_node_id, position=_point)
    def set_position(self, node_id, position):
        node = self._node(node_id)
        if node is not None:
            set_position(node, position)

    @rule(node_id=_node_id, data=st.data())
    def set_mobility(self, node_id, data):
        node = self._node(node_id)
        if node is not None:
            # None unpins nothing: the node is back where it was last pinned.
            node.set_mobility(data.draw(
                st.none() | _mobility(self.sim.now())))

    @rule(node_id=_node_id, target_id=_node_id,
          gap=st.sampled_from([152.5, 160.0, 185.0, 205.0]),
          speed=st.sampled_from([5.0, 10.0, 20.0]))
    def approach(self, node_id, target_id, gap, speed):
        """Send a node straight at another from just beyond range + skin:
        the mover a too-long window or a too-short reach would miss."""
        node, target = self._node(node_id), self._node(target_id)
        if node is not None and target is not None and node is not target:
            here = target.position
            node.set_mobility(LinearMobility(
                start=Point(here.x + gap, here.y), velocity=(-speed, 0.0),
                start_time=self.sim.now()))

    #: 12 s outlasts the longest finite window the drawn models give
    #: (0.999 * 50 m / 5 m/s), so remembered movers do expire.
    @rule(dt=st.sampled_from([0.0, 0.25, 3.0, 12.0]))
    def advance(self, dt):
        self.sim.run_until(self.sim.now() + dt)

    # -------------------------------------------------------------- liveness

    @rule(node_id=_node_id)
    def crash(self, node_id):
        node = self._node(node_id)
        if node is not None:
            node.crash()

    @rule(node_id=_node_id)
    def recover(self, node_id):
        node = self._node(node_id)
        if node is not None:
            node.recover()

    @rule(node_id=_node_id)
    def deplete(self, node_id):
        node = self._node(node_id)
        if node is not None:
            node.battery.drain(node.battery.remaining)

    # ------------------------------------------------------------ partitions

    @rule(group=st.sets(_node_id, max_size=3))
    def isolate(self, group):
        self.tokens.append(self.medium.isolate(group))

    @rule(data=st.data())
    def heal(self, data):
        if self.tokens:
            token = data.draw(st.sampled_from(self.tokens))
            self.tokens.remove(token)
            self.medium.heal(token)

    # --------------------------------------------------------------- traffic

    @rule(node_id=_node_id)
    def broadcast(self, node_id):
        sender = self._node(node_id)
        if sender is None:
            return
        del self.heard[:]
        sent = self.medium.transmit(node_id, Packet(
            source=node_id, destination=BROADCAST, payload=b"x",
            payload_bytes=8))
        expected = fresh_neighbours(self.medium, node_id) if sent else []
        # One reception costs ~1e-5 of a 1 J battery: whoever was alive at
        # transmission still is at delivery, 1 ms later.
        self.sim.run_until(self.sim.now() + 0.002)
        assert self.heard == [node.node_id for node in expected]

    @rule(sender_id=_node_id, target_id=_node_id)
    def unicast(self, sender_id, target_id):
        medium = self.medium
        sender, target = self._node(sender_id), self._node(target_id)
        if sender is None or target is None:
            return
        packet = Packet(sender_id, target_id, b"x", 8)
        # The long way round, asked afresh through the public properties;
        # range by the index's squared compare.
        here, there = sender.position, target.position
        distance = here.distance_to(there)
        joules = sender.radio.tx_cost(packet.size_bits, distance)
        dx, dy = there.x - here.x, there.y - here.y
        in_range = dx * dx + dy * dy <= medium.profile.range_m ** 2
        hears = (target.alive and in_range
                 and not medium.partitioned(sender_id, target_id))
        sender_alive, charge = sender.alive, sender.battery.remaining
        out_of_range = medium.drops_out_of_range
        sent_at = self.sim.now()
        del self.heard[:], self.heard_at[:]

        assert medium.transmit(sender_id, packet) == sender_alive

        if not sender_alive:
            assert sender.battery.remaining == charge
            assert medium.drops_out_of_range == out_of_range
            return
        # ~1e-5 of a 1 J battery: the same subtraction ``drain`` makes.
        assert sender.battery.remaining == charge - joules
        assert medium.drops_out_of_range - out_of_range == (
            target.alive and not in_range)
        self.sim.run_until(sent_at + 0.002)
        assert self.heard == ([target_id] if hears else [])
        assert self.heard_at == ([sent_at + (
            medium.profile.base_latency_s
            + serialization_delay(medium.profile, packet.size_bits)
            + medium.extra_latency_s)] if hears else [])

    # ------------------------------------------------------------ invariants

    @invariant()
    def neighbours_are_what_a_scan_says(self):
        medium = self.medium
        for node_id in IDS:
            answer = medium.neighbors_of(node_id)
            assert same_nodes(answer, scanned_neighbours(medium, node_id)), (
                node_id, answer)

    @invariant()
    def memo_holds_static_origins_and_is_never_read_past_its_until(self):
        medium = self.medium
        for node_id in IDS:
            medium.neighbors_of(node_id)
        now = self.sim.now()
        for node_id, entry in medium._static_neighbourhoods.items():
            node = medium._nodes.get(node_id)
            assert node is not None and not is_time_varying(node.mobility)
            assert entry[0] >= now, (node_id, entry[0], now)


NeighbourhoodMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None)
TestMemoAgainstScalarIndex = NeighbourhoodMachine.TestCase


class _CountingWorld:
    """A 3-node static line (a - b - c, 60 m pitch) counting index queries."""

    def __init__(self, monkeypatch):
        self.sim = Simulator()
        self.medium = WirelessMedium(self.sim, CLEAN, seed=0)
        self.nodes = {}
        for i, node_id in enumerate("abc"):
            self.add(node_id, Point(60.0 * i, 0.0))
        self.queries = 0
        index_type = type(self.medium._index)
        for name in ("query_circle_ordered", "query_neighbourhood"):
            query = getattr(index_type, name)

            def counting(index, *args, _query=query):
                self.queries += 1
                return _query(index, *args)

            monkeypatch.setattr(index_type, name, counting)

    def add(self, node_id, position, mobility=None):
        node = self.nodes[node_id] = Node(node_id, self.sim, position=position,
                                          mobility=mobility)
        self.medium.attach(node)

    def ids(self, node_id):
        return [node.node_id for node in self.medium.neighbors_of(node_id)]

    def asked(self):
        """Index queries since the last call."""
        count, self.queries = self.queries, 0
        return count


@pytest.fixture
def world(monkeypatch):
    return _CountingWorld(monkeypatch)


class TestMemoLifecycle:
    def test_static_world_asks_the_index_once_per_origin(self, world):
        for _ in range(3):
            assert world.ids("a") == ["b"]
            assert world.ids("b") == ["a", "c"]
        assert world.asked() == 2
        world.medium.transmit("b", Packet(
            source="b", destination=BROADCAST, payload=b"x", payload_bytes=8))
        assert world.asked() == 0

    def test_liveness_is_applied_at_use_not_remembered(self, world):
        world.nodes["a"].crash()
        assert world.ids("b") == ["c"]  # remembered while a was down
        world.nodes["a"].recover()
        assert world.ids("b") == ["a", "c"]
        world.nodes["c"].crash()
        assert world.ids("b") == ["a"]
        assert world.asked() == 1

    def test_one_ask_per_origin_per_window_and_one_more_after_expiry(
            self, world):
        # d drifts at 10 m/s far out of everyone's reach: every static
        # origin's window is 0.999 * 50 m / 10 m/s.
        world.add("d", Point(1000.0, 0.0), LinearMobility(
            start=Point(1000.0, 0.0), velocity=(10.0, 0.0)))
        world.asked()
        assert world.ids("b") == ["a", "c"]
        until = world.medium._static_neighbourhoods["b"][0]
        assert until == 0.999 * SKIN_FRACTION * CLEAN.range_m / 10.0
        for t in (1.0, until):
            world.sim.run_until(t)
            assert world.ids("b") == ["a", "c"]
        assert world.asked() == 1
        world.sim.run_until(math.nextafter(until, math.inf))
        assert world.ids("b") == ["a", "c"]
        assert world.ids("b") == ["a", "c"]
        assert world.asked() == 1

    def test_walker_from_beyond_the_skin_is_heard_at_the_inclusive_edge(
            self, world):
        # e walks straight at a, at the only (so the bound) speed, from
        # 160 m: 155 m at a's first beacon, outside range + skin, and
        # exactly 100.0 m at its twelfth.
        world.add("e", Point(-160.0, 0.0), LinearMobility(
            start=Point(-160.0, 0.0), velocity=(10.0, 0.0)))
        heard = []
        world.nodes["e"].set_packet_handler(
            lambda node, packet: heard.append(packet.payload[0]))

        def beacon(k):
            world.medium.transmit("a", Packet(
                source="a", destination=BROADCAST, payload=bytes([k]),
                payload_bytes=8))

        for k in range(1, 16):
            world.sim.schedule_at(0.5 * k, beacon, k)
        world.sim.run()
        assert heard == list(range(12, 16))
        # Built at 0.5 s, and again at 5.5 s: the 4.995 s window ran out.
        assert world.asked() == 2

    def test_a_build_on_stale_positions_widens_the_reach(self, world):
        # w heads for b (x = 60) at 10 m/s from x = -135. The index files w
        # at the first query, at 0 s, in the cell [-200, -100). b's entry is
        # rebuilt at 5 s with w 145 m out, inside range + skin, while the
        # cells that reach touches start at -100: only widening them by the
        # 50 m w can have come since the filing finds it, and then b hears
        # it at exactly 100 m.
        world.add("w", Point(-135.0, 0.0), LinearMobility(
            start=Point(-135.0, 0.0), velocity=(10.0, 0.0)))
        assert world.ids("b") == ["a", "c"]
        world.sim.run_until(5.0)
        assert world.ids("b") == ["a", "c"]
        assert world.medium._index.bucketed_at == 0.0
        world.sim.run_until(9.5)
        assert world.ids("b") == ["a", "c", "w"]
        assert world.asked() == 2

    def test_a_speed_with_no_bound_makes_every_broadcast_ask(self, world):
        class Wanderer:
            """A mobility model the medium knows no speed bound for."""

            def position_at(self, t):
                return Point(500.0, 0.0)

        world.add("w", Point(0.0, 0.0), Wanderer())
        world.asked()
        for _ in range(3):
            assert world.medium.transmit("b", Packet(
                source="b", destination=BROADCAST, payload=b"x",
                payload_bytes=8))
            assert world.ids("b") == ["a", "c"]
        assert world.asked() == 6
        assert not world.medium._static_neighbourhoods

    def test_a_mobile_origin_always_asks(self, world):
        world.nodes["a"].set_mobility(LinearMobility(
            start=Point(0.0, 0.0), velocity=(1.0, 0.0)))
        world.asked()
        for _ in range(3):
            assert world.ids("a") == ["b"]
            assert world.ids("b") == ["a", "c"]
        assert world.asked() == 3 + 1
        assert list(world.medium._static_neighbourhoods) == ["b"]

    def test_moves_and_mobility_swaps_clear_the_memo(self, world):
        assert world.ids("b") == ["a", "c"]
        world.asked()
        # c drifts away from b at 10 m/s: out of range after 4 s, and
        # b's window (4.995 s) has run out by 5 s.
        world.nodes["c"].set_mobility(LinearMobility(
            start=Point(120.0, 0.0), velocity=(10.0, 0.0), start_time=0.0))
        assert world.ids("b") == ["a", "c"]
        assert world.ids("b") == ["a", "c"]
        assert world.asked() == 1
        world.sim.run_until(5.0)
        assert world.ids("b") == ["a"]
        # Pinned (back in range): one query, then memory.
        set_position(world.nodes["c"], Point(100.0, 0.0))
        world.asked()
        assert world.ids("b") == ["a", "c"]
        assert world.ids("b") == ["a", "c"]
        assert world.asked() == 1
        # A StaticMobility model counts as pinned, too.
        world.nodes["c"].set_mobility(StaticMobility(Point(500.0, 0.0)))
        assert world.ids("b") == ["a"]
        assert world.ids("b") == ["a"]
        assert world.asked() == 1

    def test_detach_then_reattach_the_same_id_elsewhere(self, world):
        assert world.ids("b") == ["a", "c"]
        assert world.ids("a") == ["b"]
        detach(world.medium, "c")
        assert world.ids("b") == ["a"]
        assert world.ids("c") == []
        # Back under the same id, next to a: attached last, so listed last.
        world.add("c", Point(0.0, 30.0))
        assert world.ids("a") == ["b", "c"]
        assert world.ids("b") == ["a", "c"]
        assert world.ids("c") == ["a", "b"]
        assert all(node is world.nodes[node.node_id]
                   for node in world.medium.neighbors_of("a"))

    def test_partitions_filter_the_remembered_answer(self, world):
        assert world.ids("b") == ["a", "c"]
        token = world.medium.isolate({"a"})
        assert world.ids("b") == ["c"] and world.ids("a") == []
        world.medium.heal(token)
        assert world.ids("b") == ["a", "c"]

    def test_unicast_range_follows_pins_models_and_unpinning(self, world):
        medium, c = world.medium, world.nodes["c"]

        def out_of_range():
            before = medium.drops_out_of_range
            medium.transmit("a", Packet("a", "c", b"x", 8))
            return medium.drops_out_of_range - before

        assert out_of_range() == 1  # 120 m
        set_position(c, Point(100.0, 0.0))  # the inclusive edge
        assert out_of_range() == 0
        # A model overrides the pin: 100 m now, drifting out at 10 m/s ...
        c.set_mobility(LinearMobility(
            start=Point(100.0, 0.0), velocity=(10.0, 0.0), start_time=0.0))
        assert out_of_range() == 0
        world.sim.run_until(1.0)
        assert out_of_range() == 1
        # ... and taking it away puts c back where it was last pinned.
        c.set_mobility(None)
        assert out_of_range() == 0
        detach(medium, "c")
        world.add("c", Point(0.0, 250.0))
        assert out_of_range() == 1
