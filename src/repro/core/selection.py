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

The strategy contract: a strategy, built-in or custom, receives one
round's candidates as parallel :class:`Columns` — the sets, their
lifetimes, performance and power, and each set's ``(members, power,
sorted ids)`` tie-break key — and returns the chosen position. The
mechanism computes the columns (:func:`score_columns` here, compiled
columns in :mod:`repro.core.reconfig`); the strategy only picks. Columns
are read-only: the engine shares its compiled ones across rounds.

Built-in strategies (benchmarked against each other in E10's ablation)
take the best primary value and break ties on the tie-break key only
among the candidates that share it:

* ``max_lifetime`` — maximize lifetime;
* ``max_reliability`` — maximize performance (the greedy baseline's goal);
* ``balanced(alpha)`` — maximize ``alpha * normalized_lifetime +
  (1-alpha) * performance``; alpha=1 ~ max_lifetime, alpha=0 ~
  max_reliability.
"""

from __future__ import annotations

import math
from itertools import filterfalse
from typing import (
    Callable, Dict, FrozenSet, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core.feasibility import combined_reliability
from repro.core.sensors import SensorInfo
from repro.errors import ConfigurationError

SensorSet = FrozenSet[str]


class SetScore(NamedTuple):
    """Metrics of one candidate set: the chosen set's, as a round reports it."""

    sensor_set: SensorSet
    lifetime_s: float
    performance: float
    power_w: float


class Columns(NamedTuple):
    """One round's candidates, position ``i`` of each column describing
    ``sets[i]``; what every strategy receives."""

    sets: Sequence[SensorSet]
    lifetimes: Sequence[float]
    performance: Sequence[float]
    power: Sequence[float]
    #: ``(members, power, sorted ids)``: the deterministic final tie-break.
    tie_keys: Sequence[Tuple]

    def score(self, index: int) -> SetScore:
        """The one score a round reports: the chosen position's."""
        return SetScore(self.sets[index], self.lifetimes[index],
                        self.performance[index], self.power[index])


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


def check_own_ids(sensors: Dict[str, SensorInfo]) -> None:
    """Candidates carry sensor ids, so a record filed under another key (a
    direct ``context.sensors`` store) cannot be scored: name it."""
    for key, sensor in sensors.items():
        if key != sensor.sensor_id:
            raise ConfigurationError(
                f"context.sensors[{key!r}] holds sensor "
                f"{sensor.sensor_id!r}; a sensor is stored under its own id")


def score_set(
    sensor_set: SensorSet,
    sensors: Dict[str, SensorInfo],
    requirements: Dict[str, float],
) -> SetScore:
    # Id-sorted: the float product and sum must not associate in hash order.
    try:
        members = [sensors[sid] for sid in sorted(sensor_set)]
    except KeyError:
        check_own_ids(sensors)
        raise
    return SetScore(
        sensor_set,
        set_lifetime(members),
        set_performance(members, requirements),
        set_power(members),
    )


def score_columns(
    candidate_sets: Sequence[SensorSet],
    sensors: Dict[str, SensorInfo],
    requirements: Dict[str, float],
) -> Columns:
    """Every candidate scored from its sensors by :func:`score_set`."""
    scores = [score_set(s, sensors, requirements) for s in candidate_sets]
    return Columns(
        list(candidate_sets),
        [score.lifetime_s for score in scores],
        [score.performance for score in scores],
        [score.power_w for score in scores],
        [(len(score.sensor_set), score.power_w, tuple(sorted(score.sensor_set)))
         for score in scores],
    )


#: A strategy maps a round's columns to the chosen position.
SelectionStrategy = Callable[[Columns], int]


def _best(values: Sequence[float], tie_keys: Sequence[Tuple]) -> int:
    """Position of the highest value; among positions sharing it, the
    least tie-break key (the first of equal keys)."""
    best = max(values)
    if values.count(best) == 1:
        return values.index(best)
    return min([i for i, value in enumerate(values) if value == best],
               key=tie_keys.__getitem__)


def max_lifetime(columns: Columns) -> int:
    return _best(columns.lifetimes, columns.tie_keys)


def max_reliability(columns: Columns) -> int:
    return _best(columns.performance, columns.tie_keys)


def balanced(alpha: float = 0.7) -> SelectionStrategy:
    """Weighted tradeoff. Lifetimes are normalized by the best candidate's
    (infinite lifetimes normalize to 1), keeping both terms in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigurationError(f"alpha must be in [0, 1], got {alpha!r}")
    beta = 1.0 - alpha

    def strategy(columns: Columns) -> int:
        isinf = math.isinf
        lifetimes = columns.lifetimes
        best_finite = max(filterfalse(isinf, lifetimes), default=1.0)
        # alpha * normalized lifetime + (1 - alpha) * performance, where an
        # infinite lifetime normalizes to 1 and a zero best one to 0.
        return _best([
            alpha * (
                1.0 if isinf(lifetime)
                else 0.0 if best_finite <= 0
                else lifetime / best_finite
            ) + beta * performance
            for lifetime, performance in zip(lifetimes, columns.performance)
        ], columns.tie_keys)

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
    columns = score_columns(candidate_sets, sensors, requirements)
    return columns.score(strategy(columns))
