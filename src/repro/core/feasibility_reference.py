"""Reference (pre-bitmask) feasible-set enumeration.

This is the original, clarity-first implementation of
:func:`minimal_feasible_sets` — an O(2^n) scan over ``itertools``
combinations with a linear superset check against every set found so far.
It is retained verbatim as the oracle for property tests: the optimized
bitmask search in :mod:`repro.core.feasibility` must return *exactly* the
same list (same sets, same order) for every input. So is the original
generator form of :func:`satisfies`, which the one-loop version there must
match.

Do not call this from production code paths; it exists only so the fast
implementation can be checked against something independently simple.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence

from repro.core.feasibility import SensorSet, combined_reliability
from repro.core.sensors import SensorInfo


def satisfies(
    sensors: Sequence[SensorInfo], requirements: Dict[str, float]
) -> bool:
    """True when the group meets every variable requirement."""
    epsilon = 1e-12
    return all(
        combined_reliability(sensors, variable) + epsilon >= required
        for variable, required in requirements.items()
    )


def minimal_feasible_sets_reference(
    sensors: Sequence[SensorInfo],
    requirements: Dict[str, float],
    max_size: Optional[int] = None,
    max_sets: int = 256,
) -> List[SensorSet]:
    """Enumerate minimal feasible sets (ids), smallest first.

    Only sensors measuring at least one required variable are considered.
    Searches subset sizes in increasing order and prunes supersets of
    already-found feasible sets, so every returned set is minimal. Stops
    after ``max_sets`` results — the selector rarely needs more, and the
    cap bounds worst-case work (documented ablation in bench E10).

    Returns an empty list when even the full set is infeasible.
    """
    relevant = [
        sensor
        for sensor in sensors
        if not sensor.depleted
        and any(sensor.measures(v) for v in requirements)
    ]
    if not requirements:
        return [frozenset()]
    if not satisfies(relevant, requirements):
        return []
    by_id = {s.sensor_id: s for s in relevant}
    ids = sorted(by_id)
    limit = len(ids) if max_size is None else min(max_size, len(ids))
    found: List[SensorSet] = []
    for size in range(1, limit + 1):
        for combo in combinations(ids, size):
            candidate = frozenset(combo)
            if any(existing <= candidate for existing in found):
                continue  # superset of a smaller feasible set: not minimal
            if satisfies([by_id[i] for i in combo], requirements):
                found.append(candidate)
                if len(found) >= max_sets:
                    return found
    return found
