"""Hierarchical logical names.

A :class:`LogicalName` is a ``/``-separated path like
``"hospital/ward3/bp-sensor-2"``. Names are location-independent: they
identify *what* something is, while the location service maps them to
*where* it currently is.
"""

from __future__ import annotations

import functools

from typing import Tuple

from repro.errors import NamingError


def _validate_segment(segment: str) -> None:
    if not segment:
        raise NamingError("name segments must be non-empty")
    if "/" in segment or any(c.isspace() for c in segment):
        raise NamingError(f"invalid name segment {segment!r}")


@functools.total_ordering
class LogicalName:
    """A hierarchical name. Hashed by value: never mutate one after
    construction, since it may already be a dict or set key."""

    __slots__ = ("segments",)

    def __init__(self, segments: Tuple[str, ...]) -> None:
        self.segments = segments
        if not self.segments:
            raise NamingError("a logical name needs at least one segment")
        for segment in self.segments:
            _validate_segment(segment)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.segments,) == (other.segments,)

    def __hash__(self) -> int:
        return hash((self.segments,))

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.segments,) < (other.segments,)

    @staticmethod
    def parse(text: str) -> "LogicalName":
        """Parse ``"a/b/c"`` (leading/trailing slashes rejected)."""
        if not text or text.startswith("/") or text.endswith("/"):
            raise NamingError(f"invalid logical name {text!r}")
        return LogicalName(tuple(text.split("/")))

    def __str__(self) -> str:
        return "/".join(self.segments)

    @property
    def leaf(self) -> str:
        return self.segments[-1]

    @property
    def parent(self) -> "LogicalName":
        if len(self.segments) == 1:
            raise NamingError(f"{self} has no parent")
        return LogicalName(self.segments[:-1])

    def child(self, segment: str) -> "LogicalName":
        _validate_segment(segment)
        return LogicalName(self.segments + (segment,))

    def is_prefix_of(self, other: "LogicalName") -> bool:
        """True if ``other`` lives under (or is) this name."""
        return other.segments[: len(self.segments)] == self.segments

    def depth(self) -> int:
        return len(self.segments)
