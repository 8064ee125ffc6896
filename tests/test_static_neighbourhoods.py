"""The medium's static-neighbourhood memo against the index it fronts.

While no attached node has a time-varying mobility model,
``WirelessMedium`` answers "who is in range of whom" from memory. The memo
may only ever change *cost*: after any interleaving of membership,
movement, mobility swaps, liveness changes and partitions,
``neighbors_of`` and a broadcast's receivers must be exactly what the
position index says when asked afresh — same nodes, same order — on both
backends.

A unicast between two pinned nodes takes the same shortcut without a memo:
``transmit`` reads the two positions the nodes hold instead of going through
``Node.distance_to`` -> ``Node.position`` x2 -> ``Point.distance_to``. The
same interleavings hold it to the long way round: what the sender is
charged, whether the frame is out of range, and when it is heard.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.netsim.energy import Battery
from repro.netsim.medium import RadioProfile, WirelessMedium
from repro.netsim.mobility import (
    LinearMobility,
    PathMobility,
    RandomWaypointMobility,
    StaticMobility,
)
from repro.netsim.node import Node
from repro.netsim.packet import BROADCAST, Packet
from repro.netsim.simulator import Simulator
from repro.util.geometry import Point
from tests.test_vector_medium import BACKENDS, needs_numpy

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
        return LinearMobility(start=draw(_point), velocity=velocity,
                              start_time=at)
    if kind == "waypoint":
        return RandomWaypointMobility(
            area=(200.0, 200.0), seed=draw(st.integers(0, 3)),
            speed_range=(5.0, 20.0), pause_s=0.5)
    return PathMobility(waypoints=[draw(_point), draw(_point)], speed=15.0,
                        start_time=at)


def fresh_neighbours(medium: WirelessMedium, node_id: str):
    """What the index backend says right now, with today's filters."""
    origin = medium.get_node(node_id)
    if origin is None:
        return []
    index = medium._index
    index.refresh(medium.sim.now())
    position = origin.position
    return [
        node
        for node in index.query_circle_ordered(
            position.x, position.y, medium.profile.range_m)
        if node is not origin and node.alive
        and not medium.partitioned(node_id, node.node_id)
    ]


def same_nodes(answer, reference) -> bool:
    return len(answer) == len(reference) and all(
        a is b for a, b in zip(answer, reference))


class NeighbourhoodMachine(RuleBasedStateMachine):
    vectorized = False

    def __init__(self) -> None:
        super().__init__()
        self.sim = Simulator()
        self.medium = WirelessMedium(self.sim, CLEAN, seed=0,
                                     vectorized=self.vectorized)
        self.tokens = []
        self.heard = []
        self.heard_at = []

    def _node(self, node_id):
        return self.medium.get_node(node_id)

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
        self.medium.detach(node_id)

    # -------------------------------------------------------------- movement

    @rule(node_id=_node_id, position=_point)
    def set_position(self, node_id, position):
        node = self._node(node_id)
        if node is not None:
            node.set_position(position)

    @rule(node_id=_node_id, data=st.data())
    def set_mobility(self, node_id, data):
        node = self._node(node_id)
        if node is not None:
            # None unpins nothing: the node is back where it was last pinned.
            node.set_mobility(data.draw(
                st.none() | _mobility(self.sim.now())))

    @rule(dt=st.sampled_from([0.0, 0.25, 3.0]))
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
        # The long way round, asked afresh through the public properties.
        distance = sender.position.distance_to(target.position)
        joules = sender.radio.tx_cost(packet.size_bits, distance)
        in_range = distance <= medium.profile.range_m
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
            + medium.profile.serialization_delay(packet.size_bits)
            + medium.extra_latency_s)] if hears else [])

    # ------------------------------------------------------------ invariants

    @invariant()
    def neighbours_are_what_the_index_says(self):
        medium = self.medium
        for node_id in IDS:
            answer = medium.neighbors_of(node_id)
            assert same_nodes(answer, fresh_neighbours(medium, node_id)), (
                node_id, answer)

    @invariant()
    def memo_is_live_only_in_an_all_static_world(self):
        medium = self.medium
        attached = [node.node_id for node in medium.nodes()]
        for node_id in attached:
            medium.neighbors_of(node_id)
        remembered = medium._static_neighbourhoods
        if medium._index.all_static:
            assert sorted(remembered) == sorted(attached)
        else:
            assert not remembered


class VectorNeighbourhoodMachine(NeighbourhoodMachine):
    vectorized = True


_SETTINGS = settings(max_examples=100, stateful_step_count=50, deadline=None)
NeighbourhoodMachine.TestCase.settings = _SETTINGS
VectorNeighbourhoodMachine.TestCase.settings = _SETTINGS
TestMemoAgainstScalarIndex = NeighbourhoodMachine.TestCase
TestMemoAgainstVectorIndex = needs_numpy(VectorNeighbourhoodMachine.TestCase)


class _CountingWorld:
    """A 3-node static line (a - b - c, 60 m pitch) counting index queries."""

    def __init__(self, vectorized, monkeypatch):
        self.sim = Simulator()
        self.medium = WirelessMedium(self.sim, CLEAN, seed=0,
                                     vectorized=vectorized)
        self.nodes = {}
        for i, node_id in enumerate("abc"):
            self.add(node_id, Point(60.0 * i, 0.0))
        self.queries = 0
        backend = type(self.medium._index)
        query = backend.query_circle_ordered

        def counting(index, x, y, radius):
            self.queries += 1
            return query(index, x, y, radius)

        monkeypatch.setattr(backend, "query_circle_ordered", counting)

    def add(self, node_id, position):
        node = self.nodes[node_id] = Node(node_id, self.sim, position=position)
        self.medium.attach(node)

    def ids(self, node_id):
        return [node.node_id for node in self.medium.neighbors_of(node_id)]

    def asked(self):
        """Index queries since the last call."""
        count, self.queries = self.queries, 0
        return count


@pytest.fixture(params=BACKENDS)
def world(request, monkeypatch):
    return _CountingWorld(request.param, monkeypatch)


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

    def test_mobility_turns_the_memo_off_and_pinning_turns_it_back_on(
            self, world):
        assert world.ids("b") == ["a", "c"]
        world.asked()
        # c drifts away from b at 10 m/s: out of range after 4 s.
        world.nodes["c"].set_mobility(LinearMobility(
            start=Point(120.0, 0.0), velocity=(10.0, 0.0), start_time=0.0))
        assert world.ids("b") == ["a", "c"]
        assert world.ids("b") == ["a", "c"]
        assert world.asked() == 2 and not world.medium._static_neighbourhoods
        world.sim.run_until(5.0)
        assert world.ids("b") == ["a"]
        # Pinned (back in range): static again, one query, then memory.
        world.nodes["c"].set_position(Point(100.0, 0.0))
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
        world.medium.detach("c")
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
        c.set_position(Point(100.0, 0.0))  # the inclusive edge
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
        medium.detach("c")
        world.add("c", Point(0.0, 250.0))
        assert out_of_range() == 1
