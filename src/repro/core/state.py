"""Application states.

MiLAN applications are state-based: the paper's motivating health-monitor
needs different variables at different reliabilities depending on whether
the patient is at rest, exercising, or in distress. A :class:`StateMachine`
holds the current state and moves between states when transition predicates
over the latest variable readings fire.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.util.events import EventEmitter

#: A transition guard: reads the latest variable values, True = take it.
Predicate = Callable[[Dict[str, Any]], bool]


class Transition:
    __slots__ = ("source", "target", "predicate")

    def __init__(self, source: str, target: str, predicate: Predicate) -> None:
        self.source = source
        self.target = target
        self.predicate = predicate


class StateMachine:
    """States + predicate-guarded transitions.

    Events (via :attr:`events`): ``"state_changed"`` (old, new).
    Transitions are evaluated in registration order; the first that fires
    wins (deterministic).
    """

    def __init__(self, states: List[str], initial: str):
        if not states:
            raise ConfigurationError("a state machine needs at least one state")
        if len(set(states)) != len(states):
            raise ConfigurationError(f"duplicate states in {states!r}")
        if initial not in states:
            raise ConfigurationError(f"initial state {initial!r} not in {states!r}")
        self.states = list(states)
        self.current = initial
        self.events = EventEmitter()
        self._transitions: List[Transition] = []
        # Transitions indexed by source (registration order preserved):
        # advance() runs on every observe() in the reconfigure loop, so it
        # should only scan the current state's outgoing edges.
        self._by_source: Dict[str, List[Transition]] = {}

    def add_transition(self, source: str, target: str, predicate: Predicate) -> None:
        for state in (source, target):
            if state not in self.states:
                raise ConfigurationError(f"unknown state {state!r}")
        transition = Transition(source, target, predicate)
        self._transitions.append(transition)
        self._by_source.setdefault(source, []).append(transition)

    def force(self, state: str) -> None:
        """Jump directly to a state (application override)."""
        if state not in self.states:
            raise ConfigurationError(f"unknown state {state!r}")
        if state != self.current:
            old, self.current = self.current, state
            self.events.emit("state_changed", old, state)

    def advance(self, readings: Dict[str, Any]) -> Optional[Tuple[str, str]]:
        """Evaluate transitions against the readings; returns (old, new) if
        a transition fired, else None."""
        for transition in self._by_source.get(self.current, ()):
            if transition.predicate(readings):
                old = self.current
                self.force(transition.target)
                return (old, self.current)
        return None
