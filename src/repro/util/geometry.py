"""2-D geometry for node placement, mobility, and spatial QoS."""

from __future__ import annotations

import math
from typing import Tuple


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
