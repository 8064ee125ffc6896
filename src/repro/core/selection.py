"""Set selection: the application-performance / network-cost tradeoff.

Section 4: MiLAN must "determine which set optimizes the tradeoff between
application performance and network cost (e.g., energy dissipation)".

For a candidate set S we score:

* **lifetime(S)** — how long the *fleet* can keep the application fed if S
  is the active set now: the time until the first member of S dies
  (min energy_i / power_i). Mains-powered members contribute infinity.
* **performance(S)** — the mean achieved reliability over required
  variables (always >= requirement for feasible sets; surplus is real
  headroom against sensor loss).
* **cost(S)** — total active power draw.

Strategies (benchmarked against each other in E10's ablation):

* ``max_lifetime`` — maximize lifetime, tie-break on fewer members/lower
  power;
* ``max_reliability`` — maximize performance (the greedy baseline's goal);
* ``balanced(alpha)`` — maximize ``alpha * normalized_lifetime +
  (1-alpha) * performance``; alpha=1 ~ max_lifetime, alpha=0 ~
  max_reliability.
"""

from __future__ import annotations

import math
from typing import (
    Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core.feasibility import combined_reliability
from repro.core.sensors import SensorInfo
from repro.errors import ConfigurationError

SensorSet = FrozenSet[str]


class SetScore(NamedTuple):
    """Metrics of one candidate set (a tuple: the warm engine builds one per
    candidate per round without a Python-level constructor)."""

    sensor_set: SensorSet
    lifetime_s: float
    performance: float
    power_w: float


def set_lifetime(members: Sequence[SensorInfo]) -> float:
    """Time until the first member dies (inf for an empty/mains-only set).

    The only score term that depends on remaining energy — the incremental
    engine (:mod:`repro.core.reconfig`) recomputes it fresh every round
    while reusing the energy-independent terms below.
    """
    return min((m.lifetime_if_active() for m in members), default=float("inf"))


def set_performance(
    members: Sequence[SensorInfo], requirements: Dict[str, float]
) -> float:
    """Mean achieved reliability over required variables (1.0 when none)."""
    if requirements:
        return sum(
            combined_reliability(members, variable) for variable in requirements
        ) / len(requirements)
    return 1.0


def set_power(members: Sequence[SensorInfo]) -> float:
    """Total active power draw of the set."""
    return sum(m.active_power_w for m in members)


def score_set(
    sensor_set: SensorSet,
    sensors: Dict[str, SensorInfo],
    requirements: Dict[str, float],
) -> SetScore:
    # Id-sorted: the float product and sum must not associate in hash order.
    try:
        members = [sensors[sid] for sid in sorted(sensor_set)]
    except KeyError:
        # Candidates carry sensor ids; a record filed under another key
        # (a direct ``context.sensors`` store) leaves its id unfound.
        for key, sensor in sensors.items():
            if key != sensor.sensor_id:
                raise ConfigurationError(
                    f"context.sensors[{key!r}] holds sensor "
                    f"{sensor.sensor_id!r}; a sensor is stored under its "
                    f"own id") from None
        raise
    return SetScore(
        sensor_set,
        set_lifetime(members),
        set_performance(members, requirements),
        set_power(members),
    )


#: A strategy maps a list of scores to the chosen one.
SelectionStrategy = Callable[[List[SetScore]], SetScore]


def _tie_break(score: SetScore) -> Tuple:
    """Deterministic final tie-break: fewer members, lower power, sorted ids."""
    return (len(score.sensor_set), score.power_w, tuple(sorted(score.sensor_set)))


def _best(scores: List[SetScore], values: List[float]) -> SetScore:
    """Highest value wins, :func:`_tie_break` only among those sharing it:
    the choice ``min(key=(-value,) + _tie_break)`` makes over all scores."""
    best = max(values)
    tied = [score for score, value in zip(scores, values) if value == best]
    return tied[0] if len(tied) == 1 else min(tied, key=_tie_break)


def max_lifetime(scores: List[SetScore]) -> SetScore:
    return _best(scores, [s.lifetime_s for s in scores])


def max_reliability(scores: List[SetScore]) -> SetScore:
    return _best(scores, [s.performance for s in scores])


def balanced(alpha: float = 0.7) -> SelectionStrategy:
    """Weighted tradeoff. Lifetimes are normalized by the best candidate's
    (infinite lifetimes normalize to 1), keeping both terms in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigurationError(f"alpha must be in [0, 1], got {alpha!r}")

    def strategy(scores: List[SetScore]) -> SetScore:
        isinf = math.isinf
        finite = [s.lifetime_s for s in scores if not isinf(s.lifetime_s)]
        best_finite = max(finite) if finite else 1.0
        # alpha * normalized lifetime + (1 - alpha) * performance, where an
        # infinite lifetime normalizes to 1 and a zero best one to 0.
        return _best(scores, [
            alpha * (
                1.0 if isinf(lifetime)
                else 0.0 if best_finite <= 0
                else lifetime / best_finite
            ) + (1.0 - alpha) * performance
            for _set, lifetime, performance, _power in scores
        ])

    return strategy


_STRATEGIES: Dict[str, SelectionStrategy] = {
    "max_lifetime": max_lifetime,
    "max_reliability": max_reliability,
    "balanced": balanced(),
}


def strategy_by_name(name: str) -> SelectionStrategy:
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown selection strategy {name!r}; known: {sorted(_STRATEGIES)}"
        ) from None


def select_best(
    candidate_sets: Sequence[SensorSet],
    sensors: Dict[str, SensorInfo],
    requirements: Dict[str, float],
    strategy: SelectionStrategy = max_lifetime,
) -> Optional[SetScore]:
    """Score all candidates and pick per the strategy; None when empty."""
    if not candidate_sets:
        return None
    scores = [score_set(s, sensors, requirements) for s in candidate_sets]
    return strategy(scores)
