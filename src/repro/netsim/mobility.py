"""Mobility models.

Section 3.10 names mobility (physical and logical) as a first-class concern,
and the handoff experiments (E7) need suppliers that actually move out of
range. Models are pure functions of virtual time — ``position_at(t)`` — so
they need no per-tick updates and remain exact under any event spacing.
"""

from __future__ import annotations

from math import hypot, inf
from typing import List, Optional, Protocol, Tuple

from repro.errors import ConfigurationError
from repro.util.geometry import Point
from repro.util.rng import split_rng

#: How long a random-waypoint node rests at each destination.
PAUSE_S = 1.0


class MobilityModel(Protocol):
    """Anything that can report a position for a virtual time."""

    def position_at(self, t: float) -> Point:
        ...


def is_time_varying(model: "MobilityModel | None") -> bool:
    """True when ``model`` can report different positions over time.

    The medium's position index keys off this: a node with a time-varying
    model is tested at its position at query time, while static nodes only
    move on explicit ``set_position``/``set_mobility`` calls — which tell
    the node's medium directly.
    """
    return model is not None and not isinstance(model, StaticMobility)


def linear_params(
    model: "MobilityModel",
) -> Optional[Tuple[float, float, float, float, float]]:
    """Kinematic parameters ``(x0, y0, vx, vy, t0)`` for closed-form models.

    The position index (:mod:`repro.netsim.spatialindex`) and the medium's
    neighbour memo evaluate ``(x0, y0) + (vx, vy) * max(0, t - t0)`` inline
    from these, with :meth:`LinearMobility.position_at`'s operations in its
    order, so a mover's position is the same float either way without a
    call per candidate. Models without a closed form (paths, random
    waypoint) return ``None`` and are asked through ``position_at``.
    """
    if type(model) is LinearMobility:
        return (
            model.start.x, model.start.y,
            model.velocity[0], model.velocity[1], model.start_time,
        )
    return None


def speed_bound(model: "MobilityModel") -> float:
    """The fastest ``model`` can ever move, in m/s; ``inf`` when unknown.

    The medium's neighbour memo (:meth:`WirelessMedium._audible_nodes`)
    keeps a static origin's list of nearby movers only as long as none of
    them could have come from outside it, so the bound must hold for every
    stretch of virtual time. Exact types only: a subclass may move however
    it likes, and so gets no bound.
    """
    kind = type(model)
    if kind is LinearMobility:
        return hypot(model.velocity[0], model.velocity[1])
    if kind is PathMobility:
        return model.speed
    if kind is RandomWaypointMobility:
        return model.speed_range[1]
    return inf


class StaticMobility:
    """A fixed position (the default for infrastructure nodes)."""

    __slots__ = ("_position",)

    def __init__(self, position: Point):
        self._position = position

    def position_at(self, t: float) -> Point:
        return self._position


class LinearMobility:
    """Constant-velocity motion from a starting point.

    Used for the "service moving out of range" scenario of Section 3.7.
    """

    __slots__ = ("start", "velocity", "start_time")

    def __init__(self, start: Point, velocity: Tuple[float, float], start_time: float = 0.0):
        self.start = start
        self.velocity = velocity
        self.start_time = start_time

    def position_at(self, t: float) -> Point:
        dt = max(0.0, t - self.start_time)
        return Point(
            self.start.x + self.velocity[0] * dt,
            self.start.y + self.velocity[1] * dt,
        )


class PathMobility:
    """Piecewise-linear motion through explicit waypoints at constant speed.

    The node stops at the final waypoint.
    """

    __slots__ = ("waypoints", "speed", "start_time", "_arrivals")

    def __init__(self, waypoints: List[Point], speed: float, start_time: float = 0.0):
        if len(waypoints) < 1:
            raise ConfigurationError("path mobility needs at least one waypoint")
        if speed <= 0:
            raise ConfigurationError(f"speed must be positive, got {speed!r}")
        self.waypoints = list(waypoints)
        self.speed = speed
        self.start_time = start_time
        # Precompute segment arrival times.
        self._arrivals = [start_time]
        for previous, current in zip(self.waypoints, self.waypoints[1:]):
            leg = previous.distance_to(current) / speed
            self._arrivals.append(self._arrivals[-1] + leg)

    def position_at(self, t: float) -> Point:
        if t <= self.start_time or len(self.waypoints) == 1:
            return self.waypoints[0]
        if t >= self._arrivals[-1]:
            return self.waypoints[-1]
        for i in range(len(self.waypoints) - 1):
            if t < self._arrivals[i + 1]:
                elapsed = t - self._arrivals[i]
                return self.waypoints[i].move_toward(
                    self.waypoints[i + 1], self.speed * elapsed
                )
        return self.waypoints[-1]


class RandomWaypointMobility:
    """The classic random-waypoint model over a rectangular area.

    The node repeatedly picks a uniform random destination and speed, walks
    there, and pauses :data:`PAUSE_S`. Segments are generated lazily but
    deterministically from the seed, so ``position_at`` is a pure function
    of (seed, t).
    """

    __slots__ = (
        "area", "speed_range", "_rng",
        "_segments", "_horizon", "_last_position",
    )

    def __init__(
        self,
        area: Tuple[float, float],
        seed: int,
        speed_range: Tuple[float, float] = (0.5, 2.0),
        start: Point | None = None,
    ):
        if area[0] <= 0 or area[1] <= 0:
            raise ConfigurationError(f"area must be positive, got {area!r}")
        if speed_range[0] <= 0 or speed_range[1] < speed_range[0]:
            raise ConfigurationError(f"bad speed range {speed_range!r}")
        self.area = area
        self.speed_range = speed_range
        self._rng = split_rng(seed, "random-waypoint")
        if start is None:
            start = Point(
                self._rng.uniform(0, area[0]), self._rng.uniform(0, area[1])
            )
        # Each segment: (depart_time, arrive_time, origin, destination).
        # Between arrive_time and the next depart_time the node pauses.
        self._segments: List[Tuple[float, float, Point, Point]] = []
        self._horizon = 0.0
        self._last_position = start

    def _extend_to(self, t: float) -> None:
        while self._horizon <= t:
            depart = self._horizon + PAUSE_S
            destination = Point(
                self._rng.uniform(0, self.area[0]),
                self._rng.uniform(0, self.area[1]),
            )
            speed = self._rng.uniform(*self.speed_range)
            travel = self._last_position.distance_to(destination) / speed
            arrive = depart + travel
            self._segments.append((depart, arrive, self._last_position, destination))
            self._last_position = destination
            self._horizon = arrive

    def position_at(self, t: float) -> Point:
        self._extend_to(t)
        position = self._segments[0][2]
        for depart, arrive, origin, destination in self._segments:
            if t < depart:
                return position  # pausing at the previous destination
            if t <= arrive:
                fraction = 0.0 if arrive == depart else (t - depart) / (arrive - depart)
                return Point(
                    origin.x + (destination.x - origin.x) * fraction,
                    origin.y + (destination.y - origin.y) * fraction,
                )
            position = destination
        return position
