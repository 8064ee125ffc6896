"""Shared utilities: id generation, event emitters, geometry, seeded RNGs.

These are deliberately dependency-free building blocks used by every other
subsystem. Nothing in here knows about networks or middleware.
"""

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "EventEmitter": "repro.util.events",
    "Subscription": "repro.util.events",
    "Point": "repro.util.geometry",
    "distance": "repro.util.geometry",
    "IdGenerator": "repro.util.ids",
    "SequenceGenerator": "repro.util.ids",
    "make_rng": "repro.util.rng",
    "split_rng": "repro.util.rng",
})
