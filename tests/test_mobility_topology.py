"""Tests for mobility models, topology generators, and failure injection."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.netsim import topology
from repro.netsim.failures import FailureInjector
from repro.netsim.mobility import (
    PAUSE_S,
    LinearMobility,
    PathMobility,
    RandomWaypointMobility,
    StaticMobility,
    speed_bound,
)
from repro.netsim.network import Network
from repro.util.geometry import Point
from tests.netsim_fixtures import is_connected, random_geometric


class TestMobility:
    def test_static_never_moves(self):
        model = StaticMobility(Point(3, 4))
        assert model.position_at(0) == model.position_at(1000) == Point(3, 4)

    def test_linear_moves_at_velocity(self):
        model = LinearMobility(Point(0, 0), velocity=(2.0, 0.0))
        assert model.position_at(5.0) == Point(10, 0)

    def test_linear_respects_start_time(self):
        model = LinearMobility(Point(0, 0), velocity=(1.0, 0.0), start_time=10.0)
        assert model.position_at(5.0) == Point(0, 0)
        assert model.position_at(12.0) == Point(2, 0)

    def test_path_visits_waypoints(self):
        model = PathMobility([Point(0, 0), Point(10, 0), Point(10, 10)], speed=1.0)
        assert model.position_at(0) == Point(0, 0)
        assert model.position_at(10.0) == Point(10, 0)
        assert model.position_at(20.0) == Point(10, 10)

    def test_path_stops_at_final_waypoint(self):
        model = PathMobility([Point(0, 0), Point(5, 0)], speed=1.0)
        assert model.position_at(100.0) == Point(5, 0)

    def test_path_interpolates(self):
        model = PathMobility([Point(0, 0), Point(10, 0)], speed=2.0)
        assert model.position_at(2.5).x == pytest.approx(5.0)

    def test_path_requires_waypoints_and_speed(self):
        with pytest.raises(ConfigurationError):
            PathMobility([], speed=1.0)
        with pytest.raises(ConfigurationError):
            PathMobility([Point(0, 0)], speed=0.0)

    def test_random_waypoint_deterministic(self):
        a = RandomWaypointMobility((100, 100), seed=5)
        b = RandomWaypointMobility((100, 100), seed=5)
        for t in (0.0, 3.7, 12.2, 50.0):
            assert a.position_at(t) == b.position_at(t)

    def test_random_waypoint_stays_in_area(self):
        model = RandomWaypointMobility((50, 80), seed=9)
        for t in range(0, 200, 7):
            position = model.position_at(float(t))
            assert -1e-9 <= position.x <= 50 + 1e-9
            assert -1e-9 <= position.y <= 80 + 1e-9

    def test_random_waypoint_pauses_at_start_and_every_waypoint(self):
        model = RandomWaypointMobility((100, 100), seed=4)
        start = model.position_at(0.0)
        assert model.position_at(PAUSE_S) == start
        assert model.position_at(PAUSE_S + 0.5) != start
        model.position_at(200.0)
        legs = model._segments
        for (_depart, arrive, _origin, destination), (depart, *_rest) in zip(
                legs, legs[1:]):
            assert depart - arrive == pytest.approx(PAUSE_S)
            assert model.position_at(arrive + PAUSE_S / 2) == destination

    def test_random_waypoint_queries_can_go_backwards(self):
        model = RandomWaypointMobility((100, 100), seed=3)
        late = model.position_at(40.0)
        early = model.position_at(5.0)
        assert model.position_at(40.0) == late  # re-query consistent
        assert model.position_at(5.0) == early

    @pytest.mark.parametrize("model,bound", [
        (LinearMobility(Point(0, 0), velocity=(3.0, -4.0), start_time=2.0), 5.0),
        (PathMobility([Point(0, 0), Point(30, 0), Point(30, 40)], speed=2.5), 2.5),
        (RandomWaypointMobility((100, 100), seed=1, speed_range=(1.0, 6.0)),
         6.0),
    ], ids=["linear", "path", "waypoint"])
    def test_speed_bound_holds_between_any_two_instants(self, model, bound):
        assert speed_bound(model) == bound
        times = [0.25 * k for k in range(200)]
        positions = [model.position_at(t) for t in times]
        for (t0, p0) in zip(times, positions):
            for (t1, p1) in zip(times[::7], positions[::7]):
                assert p0.distance_to(p1) <= bound * abs(t1 - t0) + 1e-9

    def test_an_unknown_model_has_no_speed_bound(self):
        class Drift(LinearMobility):
            """A subclass may move however it likes."""

        assert speed_bound(Drift(Point(0, 0), velocity=(1.0, 0.0))) == math.inf
        assert speed_bound(object()) == math.inf

    def test_node_follows_mobility(self):
        network = Network()
        node = network.add_node(
            "m", mobility=LinearMobility(Point(0, 0), velocity=(10.0, 0.0))
        )
        network.sim.run_until(5.0)
        assert node.position == Point(50, 0)


class TestTopology:
    def test_grid_dimensions(self):
        network = topology.grid(3, 4, spacing=10)
        assert len(network) == 12
        assert network.node("n2_3").position == Point(30, 20)

    def test_grid_rejects_bad_dims(self):
        with pytest.raises(ConfigurationError):
            topology.grid(0, 5)

    def test_linear_chain_adjacency(self):
        network = topology.linear_chain(4, spacing=60)
        assert {n.node_id for n in network.neighbors("n1")} == {"n0", "n2"}

    def test_star_all_leaves_reach_hub(self):
        network = topology.star(5, radius=40)
        hub_neighbors = {n.node_id for n in network.neighbors("hub")}
        assert hub_neighbors == {f"leaf{i}" for i in range(5)}

    def test_random_geometric_connected(self):
        for seed in range(4):
            network = random_geometric(25, seed=seed)
            assert is_connected(network)

    def test_random_geometric_deterministic(self):
        a = random_geometric(15, seed=2)
        b = random_geometric(15, seed=2)
        assert [n.position for n in a.nodes()] == [n.position for n in b.nodes()]

    def test_battery_factory_applied(self):
        from repro.netsim.energy import Battery

        network = topology.grid(2, 2, battery_factory=lambda nid: Battery(capacity=3.0))
        assert all(n.battery.capacity == 3.0 for n in network.nodes())


class TestFailureInjector:
    def test_scheduled_crash_and_recover(self):
        network = topology.star(2)
        injector = FailureInjector(network)
        injector.crash_and_recover("leaf0", crash_at=5.0, downtime=3.0)
        network.sim.run_until(6.0)
        assert not network.node("leaf0").alive
        network.sim.run_until(9.0)
        assert network.node("leaf0").alive
        assert [f.kind for f in injector.log] == ["crash", "recover"]

    def test_partition_and_heal(self):
        network = topology.star(3, radius=40)
        injector = FailureInjector(network)
        injector.partition_at(2.0, ["leaf0"], duration=4.0)
        network.sim.run_until(3.0)
        assert "leaf0" not in {n.node_id for n in network.neighbors("hub")}
        network.sim.run_until(7.0)
        assert "leaf0" in {n.node_id for n in network.neighbors("hub")}

    def test_random_churn_is_seeded(self):
        network_a = topology.star(4)
        network_b = topology.star(4)
        count_a = FailureInjector(network_a, seed=3).random_churn(
            ["leaf0", "leaf1"], rate_per_node_s=0.1, downtime_s=1.0, until=100.0
        )
        count_b = FailureInjector(network_b, seed=3).random_churn(
            ["leaf0", "leaf1"], rate_per_node_s=0.1, downtime_s=1.0, until=100.0
        )
        assert count_a == count_b > 0
