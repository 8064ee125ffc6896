"""The position index against a scan of every node, and its wiring into
the wireless medium.

The index must answer exactly what a scan of every attached node says —
each node at its exact position, the same squared compare, attachment
order — and the medium must keep it current through ``"moved"`` events
while movers are tested where they are at the moment of the query.
"""

import math
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.netsim.energy import Battery
from repro.netsim.medium import SKIN_FRACTION, RadioProfile, WirelessMedium
from repro.netsim.mobility import (
    LinearMobility,
    PathMobility,
    RandomWaypointMobility,
    StaticMobility,
    is_time_varying,
    speed_bound,
)
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.netsim.spatialindex import REBUCKET_SHARE, PositionIndex
from repro.netsim.topology import grid
from repro.util.geometry import Point
from tests.netsim_fixtures import (
    detach,
    is_connected,
    points_connected,
    random_geometric,
    set_position,
    unindex,
)

QUIET_RADIO = RadioProfile(name="quiet", bandwidth_bps=1e6, range_m=50.0)


def scan(nodes, here, radius):
    """The ``nodes`` within ``radius`` of ``here``, in the order given, each
    at its position now, by the index's squared compare."""
    r2 = radius * radius
    out = []
    for node in nodes:
        there = node.position
        dx = there.x - here.x
        dy = there.y - here.y
        if dx * dx + dy * dy <= r2:
            out.append(node)
    return out


class ScanIndex:
    """The position index's interface answered by :func:`scan`: the
    reference a :class:`PositionIndex` is held to."""

    def __init__(self):
        self._nodes = {}  # attach order; a move keeps a node's place

    def insert(self, node):
        self._nodes[node.node_id] = node

    def remove(self, node_id):
        self._nodes.pop(node_id, None)

    def note_moved(self, node):
        pass

    def speed_bound(self):
        return max((speed_bound(node.mobility)
                    for node in self._nodes.values()
                    if is_time_varying(node.mobility)), default=0.0)

    def query_circle_ordered(self, x, y, radius, now):
        return scan(self._nodes.values(), Point(x, y), radius)

    def query_neighbourhood(self, origin_id, x, y, radius, reach, now):
        place = {node_id: i for i, node_id in enumerate(self._nodes)}
        statics = [node.node_id for node in scan(
            self._nodes.values(), Point(x, y), radius)
            if not is_time_varying(node.mobility)
            and node.node_id != origin_id]
        places = [place[node_id] for node_id in statics]
        movers = []
        for node in scan(self._nodes.values(), Point(x, y), reach):
            if is_time_varying(node.mobility):
                movers += (bisect_left(places, place[node.node_id]),
                           node.node_id, None)
        return statics, movers


def _node(sim, node_id, x, y, mobility=None):
    return Node(node_id, sim, position=Point(x, y), mobility=mobility)


class TestSpatialHashGrid:
    def test_insert_query_remove(self):
        sim, index = Simulator(), PositionIndex(10.0)
        a, b, c = (_node(sim, "a", 0.0, 0.0), _node(sim, "b", 3.0, 4.0),
                   _node(sim, "c", 100.0, 100.0))
        for node in (a, b, c):
            index.insert(node)
        assert index.query_circle_ordered(0.0, 0.0, 6.0, 0.0) == [a, b]
        assert index.query_circle_ordered(0.0, 0.0, 200.0, 0.0) == [a, b, c]
        unindex(index, "b")
        assert index.query_circle_ordered(0.0, 0.0, 6.0, 0.0) == [a]
        unindex(index, "b")  # idempotent
        assert index.query_circle_ordered(0.0, 0.0, 200.0, 0.0) == [a, c]

    def test_duplicate_insert_rejected(self):
        sim, index = Simulator(), PositionIndex(10.0)
        index.insert(_node(sim, "a", 0.0, 0.0))
        with pytest.raises(ConfigurationError):
            index.insert(_node(sim, "a", 5.0, 5.0))

    def test_nonpositive_cell_size_rejected(self):
        with pytest.raises(ConfigurationError):
            PositionIndex(0.0)

    def test_boundary_is_inclusive(self):
        sim, index = Simulator(), PositionIndex(5.0)
        edge = _node(sim, "edge", 3.0, 4.0)  # distance exactly 5 from origin
        index.insert(edge)
        assert index.query_circle_ordered(0.0, 0.0, 5.0, 0.0) == [edge]
        # Just below a cell edge, two cells from the query's: the rounded
        # dy is exactly -100, so the squared compare puts it in range.
        index = PositionIndex(100.0)
        below = _node(sim, "below", 75.0, -1.0421038247428376e-262)
        index.insert(below)
        assert index.query_circle_ordered(75.0, 100.0, 100.0, 0.0) == [below]

    def test_move_rebuckets_across_cells(self):
        sim, index = Simulator(), PositionIndex(10.0)
        a = _node(sim, "a", 1.0, 1.0)
        index.insert(a)
        set_position(a, Point(95.0, 95.0))
        index.note_moved(a)
        assert index.query_circle_ordered(0.0, 0.0, 10.0, 0.0) == []
        assert index.query_circle_ordered(100.0, 100.0, 10.0, 0.0) == [a]

    def test_move_within_cell_updates_position(self):
        sim, index = Simulator(), PositionIndex(10.0)
        a, b = _node(sim, "a", 1.0, 1.0), _node(sim, "b", 2.5, 2.5)
        index.insert(a)
        index.insert(b)
        set_position(a, Point(2.0, 2.0))
        index.note_moved(a)
        assert index.query_circle_ordered(2.0, 2.0, 0.1, 0.0) == [a]
        # A move keeps the node's place in attachment order.
        assert index.query_circle_ordered(2.0, 2.0, 1.0, 0.0) == [a, b]

    def test_negative_coordinates(self):
        sim, index = Simulator(), PositionIndex(10.0)
        neg = _node(sim, "neg", -15.0, -15.0)
        index.insert(neg)
        index.insert(_node(sim, "origin", 0.0, 0.0))
        assert index.query_circle_ordered(-14.0, -14.0, 3.0, 0.0) == [neg]

    def test_query_matches_brute_force_on_random_points(self):
        rng = random.Random(7)
        sim, index = Simulator(), PositionIndex(30.0)
        nodes = []
        for i in range(150):
            x, y = rng.uniform(-200, 200), rng.uniform(-200, 200)
            mobility = None if i % 4 else LinearMobility(
                Point(x, y), velocity=(rng.uniform(-9, 9), rng.uniform(-9, 9)))
            nodes.append(_node(sim, f"p{i}", x, y, mobility))
            index.insert(nodes[-1])
        for step in range(40):
            sim.run_until(step * 0.7)
            here = Point(rng.uniform(-220, 220), rng.uniform(-220, 220))
            radius = rng.uniform(1.0, 80.0)
            assert index.query_circle_ordered(
                here.x, here.y, radius, sim.now()) == scan(nodes, here, radius)


class Swerving(LinearMobility):
    """A subclass, so a model with no speed bound: it covers ten times the
    ground its velocity says."""

    __slots__ = ()

    def position_at(self, t):
        return super().position_at(10.0 * t)


RANGE = 100.0
#: A 25 m lattice (distances exactly at the range are common) or anywhere.
_coordinate = (st.integers(-4, 12).map(lambda i: 25.0 * i)
               | st.floats(-150.0, 350.0, allow_nan=False))
_point = st.builds(Point, _coordinate, _coordinate)


@st.composite
def _mobility(draw, now):
    kind = draw(st.sampled_from(
        ["none", "static", "linear", "path", "waypoint", "swerving"]))
    if kind == "none":
        return None
    if kind == "static":
        return StaticMobility(draw(_point))
    if kind == "path":
        return PathMobility([draw(_point), draw(_point)],
                            speed=draw(st.sampled_from([5.0, 30.0])),
                            start_time=now)
    if kind == "waypoint":
        return RandomWaypointMobility(
            area=(250.0, 250.0), seed=draw(st.integers(0, 3)),
            speed_range=(5.0, 25.0))
    velocity = (draw(st.sampled_from([-20.0, 0.0, 7.5])),
                draw(st.sampled_from([-5.0, 0.0, 20.0])))
    kind = LinearMobility if kind == "linear" else Swerving
    return kind(draw(_point), velocity,
                start_time=now + draw(st.sampled_from([0.0, 2.0])))


_OPS = st.sampled_from(
    ["attach", "detach", "set_position", "set_mobility", "advance"])
#: Short of the re-bucket threshold at every drawn speed, past it at all
#: but the slowest, and past it at every one.
_JUMPS = st.sampled_from(
    [0.0, 0.5, 1.5, REBUCKET_SHARE * RANGE / 5.0 + 0.5, 40.0])


class TestTheIndexIsAScan:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_index_equals_a_scan_of_every_node(self, data):
        sim, index, oracle = Simulator(), PositionIndex(RANGE), ScanIndex()
        attached = {}
        for step in range(data.draw(st.integers(1, 30))):
            op = data.draw(_OPS) if attached else "attach"
            node_id = data.draw(st.sampled_from([f"n{i}" for i in range(8)]))
            node = attached.get(node_id)
            if op == "attach" and node is None:
                node = attached[node_id] = Node(
                    node_id, sim, position=data.draw(_point),
                    mobility=data.draw(_mobility(sim.now())))
                index.insert(node)
                oracle.insert(node)
            elif op == "detach" and node is not None:
                del attached[node_id]
                unindex(index, node_id)
                oracle.remove(node_id)
            elif op == "set_position" and node is not None:
                set_position(node, data.draw(_point))
                index.note_moved(node)
            elif op == "set_mobility" and node is not None:
                node.set_mobility(data.draw(_mobility(sim.now())))
                index.note_moved(node)
            elif op == "advance":
                sim.run_until(sim.now() + data.draw(_JUMPS))
            now = sim.now()
            assert index.speed_bound() == oracle.speed_bound()
            somewhere = data.draw(_point)
            for here in [somewhere] + [n.position for n in attached.values()]:
                for radius in (RANGE, RANGE * (1.0 + SKIN_FRACTION)):
                    assert index.query_circle_ordered(
                        here.x, here.y, radius, now) == scan(
                            oracle._nodes.values(), here, radius), (
                        step, here, radius)
            for origin in list(attached.values()):
                if is_time_varying(origin.mobility):
                    continue
                here = origin.position
                reach = RANGE * (1.0 + SKIN_FRACTION)
                got = index.query_neighbourhood(
                    origin.node_id, here.x, here.y, RANGE, reach, now)
                want = oracle.query_neighbourhood(
                    origin.node_id, here.x, here.y, RANGE, reach, now)
                assert got[0] == want[0]
                assert _places(got[1]) == _places(want[1])


def _places(movers):
    """``(at, node_id)`` per mover of a neighbourhood's flat list."""
    return list(zip(movers[::3], movers[1::3]))


class TestPointsConnected:
    def test_trivial_cases(self):
        assert points_connected([], 10.0)
        assert points_connected([(0.0, 0.0)], 10.0)
        assert points_connected([(0.0, 0.0), (1.0, 1.0)], 0.0) is False

    def test_pair_in_and_out_of_range(self):
        assert points_connected([(0.0, 0.0), (3.0, 4.0)], 5.0)
        assert points_connected([(0.0, 0.0), (3.0, 4.0)], 4.99) is False

    def test_chain_connects_through_hops(self):
        chain = [(float(i * 10), 0.0) for i in range(8)]
        assert points_connected(chain, 10.0)
        assert points_connected(chain, 9.0) is False

    def test_matches_brute_force_bfs(self):
        rng = random.Random(13)
        for trial in range(30):
            n = rng.randint(2, 40)
            points = [
                (rng.uniform(0, 150), rng.uniform(0, 150)) for _ in range(n)
            ]
            radius = rng.uniform(10.0, 80.0)
            adjacency = {
                i: [
                    j for j in range(n)
                    if j != i
                    and (points[j][0] - points[i][0]) ** 2
                    + (points[j][1] - points[i][1]) ** 2 <= radius * radius
                ]
                for i in range(n)
            }
            seen = {0}
            stack = [0]
            while stack:
                for j in adjacency[stack.pop()]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            assert points_connected(points, radius) == (len(seen) == n), (
                f"trial {trial}: n={n} radius={radius}"
            )


    def test_connected_where_the_medium_says_so_at_the_edge(self):
        """``hypot`` puts this pair past 100 m; the squared compare the
        medium decides range with puts it in range, and so must this."""
        far = (-11.37148417237685, 99.35134295880144)
        assert math.hypot(*far) > 100.0
        assert points_connected([(0.0, 0.0), far], 100.0)
        # Two cells apart, in range by a rounding error.
        assert points_connected([(0.0, 100.0), (0.0, -1e-262)], 100.0)
        network = Network()
        network.add_node("a", position=Point(0.0, 0.0))
        network.add_node("b", position=Point(*far))
        assert is_connected(network)


class TestMediumGridIntegration:
    def test_neighbors_match_brute_force_scan(self):
        network = random_geometric(60, area=(400.0, 400.0), seed=3,
                                   require_connected=False)
        medium = network.medium
        for origin in network.nodes():
            expected = [
                node.node_id
                for node in network.nodes()
                if node.node_id != origin.node_id
                and node.alive
                and origin.distance_to(node) <= medium.profile.range_m
            ]
            actual = [n.node_id for n in medium.neighbors_of(origin.node_id)]
            assert actual == expected  # same members AND same (attach) order

    def test_unicast_and_broadcast_agree_at_the_range_edge(self):
        """One range test for every path: a pair ``neighbors_of`` puts out
        of range is out of range for a unicast too."""
        network = Network()  # 802.11, 100 m
        a = network.add_node("a", position=Point(0.0, 0.0),
                             battery=Battery(capacity=1.0))
        b = network.add_node("b", position=Point(-95.00635012429373,
                                                 31.205663525394122))
        medium = network.medium
        heard = []
        b.set_packet_handler(lambda node, packet: heard.append(packet))
        assert medium.neighbors_of("a") == []
        packet = Packet("a", "b", b"x", 8)
        assert medium.transmit("a", packet)
        network.sim.run()
        assert heard == [] and medium.drops_out_of_range == 1
        # The sender still pays for the distance it sent over.
        assert a.battery.remaining == 1.0 - a.radio.tx_cost(
            packet.size_bits, a.distance_to(b))

    def test_set_position_invalidates_grid(self):
        sim = Simulator()
        medium = WirelessMedium(sim, QUIET_RADIO)
        a = Node("a", sim, position=Point(0.0, 0.0))
        b = Node("b", sim, position=Point(10.0, 0.0))
        medium.attach(a)
        medium.attach(b)
        assert [n.node_id for n in medium.neighbors_of("a")] == ["b"]
        set_position(b, Point(500.0, 0.0))
        assert medium.neighbors_of("a") == []
        set_position(b, Point(20.0, 0.0))
        assert [n.node_id for n in medium.neighbors_of("a")] == ["b"]

    def test_mobile_node_tracked_as_time_advances(self):
        sim = Simulator()
        medium = WirelessMedium(sim, QUIET_RADIO)
        base = Node("base", sim, position=Point(0.0, 0.0))
        walker = Node(
            "walker", sim,
            mobility=LinearMobility(Point(0.0, 0.0), velocity=(10.0, 0.0)),
        )
        medium.attach(base)
        medium.attach(walker)
        assert [n.node_id for n in medium.neighbors_of("base")] == ["walker"]
        sim.run_until(4.0)  # walker at x=40, still in 50 m range
        assert [n.node_id for n in medium.neighbors_of("base")] == ["walker"]
        sim.run_until(6.0)  # walker at x=60, out of range
        assert medium.neighbors_of("base") == []

    def test_set_mobility_swap_updates_tracking(self):
        sim = Simulator()
        medium = WirelessMedium(sim, QUIET_RADIO)
        base = Node("base", sim, position=Point(0.0, 0.0))
        roamer = Node("roamer", sim, position=Point(10.0, 0.0))
        medium.attach(base)
        medium.attach(roamer)
        assert not is_time_varying(roamer.mobility)
        roamer.set_mobility(LinearMobility(Point(10.0, 0.0), velocity=(25.0, 0.0)))
        assert is_time_varying(roamer.mobility)
        sim.run_until(3.0)  # roamer at x=85, out of 50 m range
        assert medium.neighbors_of("base") == []
        # Pinning back to a static point downgrades it out of the mobile set.
        set_position(roamer, Point(5.0, 0.0))
        assert not is_time_varying(roamer.mobility)
        assert [n.node_id for n in medium.neighbors_of("base")] == ["roamer"]

    def test_grid_takes_vectorized_none_only(self):
        assert len(grid(2, 2, vectorized=None).nodes()) == 4
        for value in (True, False):
            with pytest.raises(ConfigurationError, match="vectorized"):
                grid(2, 2, vectorized=value)

    def test_static_mobility_model_is_not_time_varying(self):
        assert not is_time_varying(StaticMobility(Point(1.0, 2.0)))
        assert not is_time_varying(None)

    def test_detach_removes_from_grid(self):
        sim = Simulator()
        medium = WirelessMedium(sim, QUIET_RADIO)
        a = Node("a", sim, position=Point(0.0, 0.0))
        b = Node("b", sim, position=Point(10.0, 0.0))
        medium.attach(a)
        medium.attach(b)
        detach(medium, "b")
        assert medium.neighbors_of("a") == []
        # A "moved" event from a detached node must not resurrect it.
        set_position(b, Point(1.0, 0.0))
        assert medium.neighbors_of("a") == []

    def test_dead_nodes_filtered_but_stay_in_grid(self):
        sim = Simulator()
        medium = WirelessMedium(sim, QUIET_RADIO)
        a = Node("a", sim, position=Point(0.0, 0.0))
        b = Node("b", sim, position=Point(10.0, 0.0))
        medium.attach(a)
        medium.attach(b)
        b.crash()
        assert medium.neighbors_of("a") == []
        b.recover()
        assert [n.node_id for n in medium.neighbors_of("a")] == ["b"]
