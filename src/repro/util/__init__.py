"""Shared utilities: id generation, event emitters, geometry, seeded RNGs.

These are deliberately dependency-free building blocks used by every other
subsystem. Nothing in here knows about networks or middleware.
"""

from repro.util.events import EventEmitter, Subscription
from repro.util.geometry import Point, distance
from repro.util.ids import IdGenerator, SequenceGenerator
from repro.util.rng import make_rng, split_rng

__all__ = [
    "EventEmitter",
    "Subscription",
    "Point",
    "distance",
    "IdGenerator",
    "SequenceGenerator",
    "make_rng",
    "split_rng",
]
