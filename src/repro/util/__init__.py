"""Shared utilities: virtual clocks, id generation, event emitters, geometry.

These are deliberately dependency-free building blocks used by every other
subsystem. Nothing in here knows about networks or middleware.
"""

from repro.util.clock import Clock, ManualClock
from repro.util.events import EventEmitter, Subscription
from repro.util.geometry import Point, distance
from repro.util.ids import IdGenerator, SequenceGenerator
from repro.util.priorityqueue import StablePriorityQueue
from repro.util.rng import make_rng, split_rng

__all__ = [
    "Clock",
    "ManualClock",
    "EventEmitter",
    "Subscription",
    "Point",
    "distance",
    "IdGenerator",
    "SequenceGenerator",
    "StablePriorityQueue",
    "make_rng",
    "split_rng",
]
