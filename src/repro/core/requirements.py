"""The state-based variable requirements graph.

For each application state, each variable of interest carries the minimum
acceptable reliability with which the application must receive it — the
"application QoS" of Section 4, specified by the application and maintained
by MiLAN as the environment changes. A variable absent from a state is not
needed in that state (requirement 0).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import ConfigurationError


class VariableRequirements:
    """state -> variable -> required reliability in [0, 1]."""

    __slots__ = ("by_state",)

    def __init__(self) -> None:
        self.by_state: Dict[str, Dict[str, float]] = {}

    def require(self, state: str, variable: str, reliability: float) -> "VariableRequirements":
        """Declare a requirement; returns self for chaining."""
        if not 0.0 < reliability <= 1.0:
            raise ConfigurationError(
                f"required reliability must be in (0, 1], got {reliability!r}"
            )
        self.by_state.setdefault(state, {})[variable] = reliability
        return self

    def for_state(self, state: str) -> Dict[str, float]:
        """Requirements active in ``state`` (empty dict = nothing needed)."""
        return dict(self.by_state.get(state, {}))

    def states(self) -> List[str]:
        return list(self.by_state)

    def variables(self) -> Set[str]:
        names: Set[str] = set()
        for requirements in self.by_state.values():
            names.update(requirements)
        return names
