"""The application policy: MiLAN's policy/mechanism separation.

"A key feature of MiLAN is the separation of the policy for managing the
network, which is defined by the application, from the mechanisms for
implementing the policy, which is affected within MiLAN."

An :class:`ApplicationPolicy` is everything the application declares —
states, per-state variable requirements, transition rules, the
performance/lifetime weighting — and nothing about *how* feasible sets are
found, filtered, or applied. Handing one of these to
:class:`repro.core.milan.Milan` is the entire application-side API.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.requirements import VariableRequirements
from repro.core.selection import SelectionStrategy, balanced, strategy_by_name
from repro.core.state import Predicate, StateMachine
from repro.errors import ConfigurationError


class ApplicationPolicy:
    """Declarative application policy.

    Attributes:
        name: for logs and events.
        requirements: state -> variable -> required reliability.
        initial_state: where the state machine starts.
        transitions: (source, target, predicate) triples over readings.
        selection: a strategy name ("max_lifetime", "max_reliability",
            "balanced") or a custom :data:`SelectionStrategy`.
    """

    __slots__ = ("name", "requirements", "initial_state", "transitions",
                 "selection")

    def __init__(self, name: str, requirements: VariableRequirements,
                 initial_state: str,
                 transitions: Optional[List[Tuple[str, str, Predicate]]] = None,
                 selection: object = "max_lifetime") -> None:
        self.name = name
        self.requirements = requirements
        self.initial_state = initial_state
        self.transitions = [] if transitions is None else transitions
        self.selection = selection
        states = self.requirements.states()
        if self.initial_state not in states:
            raise ConfigurationError(
                f"initial state {self.initial_state!r} has no requirements; "
                f"declared states: {states}"
            )

    def build_state_machine(self) -> StateMachine:
        machine = StateMachine(self.requirements.states(), self.initial_state)
        for source, target, predicate in self.transitions:
            machine.add_transition(source, target, predicate)
        return machine

    def selection_strategy(self) -> SelectionStrategy:
        if callable(self.selection):
            return self.selection  # custom strategy object
        if isinstance(self.selection, str):
            return strategy_by_name(self.selection)
        raise ConfigurationError(
            f"selection must be a strategy name or callable, got {self.selection!r}"
        )


def health_monitor_policy(alpha: float = 0.7) -> ApplicationPolicy:
    """The paper's Section 3.1 scenario as a ready-made policy.

    Three states — ``rest``, ``exercise``, ``distress`` — over blood
    pressure, heart rate, and oxygen saturation. Distress is entered when
    systolic blood pressure spikes and needs near-certain delivery of every
    vital; rest is cheap.
    """
    requirements = (
        VariableRequirements()
        .require("rest", "blood_pressure", 0.7)
        .require("rest", "heart_rate", 0.6)
        .require("exercise", "blood_pressure", 0.85)
        .require("exercise", "heart_rate", 0.9)
        .require("exercise", "oxygen_saturation", 0.7)
        .require("distress", "blood_pressure", 0.99)
        .require("distress", "heart_rate", 0.99)
        .require("distress", "oxygen_saturation", 0.95)
    )
    transitions: List[Tuple[str, str, Predicate]] = [
        ("rest", "exercise", lambda r: r.get("heart_rate", 0) > 100),
        ("exercise", "rest", lambda r: r.get("heart_rate", 200) < 90),
        ("rest", "distress", lambda r: r.get("blood_pressure", 0) > 180),
        ("exercise", "distress", lambda r: r.get("blood_pressure", 0) > 180),
        ("distress", "rest", lambda r: r.get("blood_pressure", 999) < 140),
    ]
    return ApplicationPolicy(
        name="health-monitor",
        requirements=requirements,
        initial_state="rest",
        transitions=transitions,
        selection=balanced(alpha),
    )
