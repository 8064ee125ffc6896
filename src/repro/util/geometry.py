"""2-D geometry for node placement, mobility, and spatial QoS."""

from __future__ import annotations

import math
from typing import Iterable, Tuple


class Point:
    """A 2-D point (meters). Hashed by value: never mutate one after
    construction, since it may already be a dict or set key."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.x, self.y) == (other.x, other.y)

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def midpoint(self, other: "Point") -> "Point":
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def translate(self, dx: float, dy: float) -> "Point":
        return Point(self.x + dx, self.y + dy)

    def move_toward(self, target: "Point", step: float) -> "Point":
        """Return the point ``step`` meters from self toward ``target``.

        Never overshoots: if the target is closer than ``step``, returns the
        target itself.
        """
        remaining = self.distance_to(target)
        if remaining <= step or remaining == 0.0:
            return target
        fraction = step / remaining
        return Point(
            self.x + (target.x - self.x) * fraction,
            self.y + (target.y - self.y) * fraction,
        )

    def as_tuple(self) -> Tuple[float, float]:
        return (self.x, self.y)


ORIGIN = Point(0.0, 0.0)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return a.distance_to(b)


def centroid(points: Iterable[Point]) -> Point:
    """Arithmetic mean of a non-empty collection of points."""
    xs, ys, n = 0.0, 0.0, 0
    for p in points:
        xs += p.x
        ys += p.y
        n += 1
    if n == 0:
        raise ValueError("centroid of empty point collection")
    return Point(xs / n, ys / n)


def bounding_box(points: Iterable[Point]) -> Tuple[Point, Point]:
    """Return (lower-left, upper-right) corners of the points' bounding box."""
    iterator = iter(points)
    try:
        first = next(iterator)
    except StopIteration:
        raise ValueError("bounding box of empty point collection") from None
    min_x = max_x = first.x
    min_y = max_y = first.y
    for p in iterator:
        min_x = min(min_x, p.x)
        max_x = max(max_x, p.x)
        min_y = min(min_y, p.y)
        max_y = max(max_y, p.y)
    return Point(min_x, min_y), Point(max_x, max_y)
