"""Application feasible-set computation — the heart of MiLAN.

"Physical resources ... and minimum application performance limit the input
to certain subsets of available components. It is the job of MiLAN to
identify these feasible sets."

A set of sensors S satisfies variable v (required reliability q) when::

    1 - prod_{s in S, s measures v} (1 - r_sv)  >=  q

— independent readings combine like parallel reliability. The *feasible
sets* are the satisfying subsets; since feasibility is monotone (supersets
of a feasible set are feasible), the minimal ones characterize them all.

:func:`minimal_feasible_sets` enumerates minimal sets exactly with
superset pruning (fine up to ~20 sensors); :func:`greedy_feasible_set` is
the polynomial fallback for larger fleets and is also the "greedy
reliability" baseline in experiment E10.

MiLAN re-evaluates its selection continuously at runtime, so enumeration
is a recurring hot path, not a one-shot setup cost. The search here is
therefore written around integer bitmasks: sensor ids map to bit
positions, per-variable miss products are maintained incrementally along
a depth-first prefix tree (one multiply per tree edge instead of a full
recompute per subset), minimality is enforced with bitmask containment
checks against a bit-bucketed index of found sets, and precomputed
per-variable log-miss contributions give a sound bound that prunes
subtrees which cannot satisfy some variable even using every remaining
sensor. The original list-scan implementation is retained in
:mod:`repro.core.feasibility_reference` and property tests assert the two
return identical results.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.sensors import SensorInfo

SensorSet = FrozenSet[str]

#: Tolerance on reliability comparisons (matches the reference module).
_EPSILON = 1e-12

#: Extra slack on the log-domain bound so float rounding can never prune a
#: subset the exact product-domain check would accept.
_LOG_MARGIN = 1e-9


def sensor_signature(sensor: SensorInfo) -> Tuple:
    """The enumeration-relevant identity of one sensor.

    Two fleets whose alive sensors carry pairwise-equal signatures (under
    the same requirements) produce identical candidate enumerations, so
    this is what :class:`repro.core.reconfig.ReconfigEngine` fingerprints.
    Remaining energy is deliberately excluded: draining a battery without
    depleting it cannot change which sets are feasible, only how they
    score — that is the energy-only fast path. Active power is included
    because the cached per-set score terms reuse it.
    """
    return (sensor.active_power_w, tuple(sorted(sensor.reliabilities.items())))


def requirements_signature(requirements: Dict[str, float]) -> Tuple:
    """Order-insensitive identity of a state's variable requirements."""
    return tuple(sorted(requirements.items()))


def combined_reliability(
    sensors: Sequence[SensorInfo], variable: str
) -> float:
    """Reliability a sensor group achieves for one variable."""
    miss = 1.0
    for sensor in sensors:
        r = sensor.reliabilities.get(variable, 0.0)
        if r > 0.0:
            miss *= 1.0 - r
    return 1.0 - miss


def satisfies(
    sensors: Sequence[SensorInfo], requirements: Dict[str, float]
) -> bool:
    """True when the group meets every variable requirement.

    Variable by variable, in the requirements' order, and false at the
    first one missed: ``combined_reliability(sensors, variable) + 1e-12 >=
    required``, with the miss product written out in the same loop (this
    runs at least once per MiLAN round). The reference module keeps the
    ``all(...)`` form as the oracle.
    """
    for variable, required in requirements.items():
        miss = 1.0
        for sensor in sensors:
            r = sensor.reliabilities.get(variable, 0.0)
            if r > 0.0:
                miss *= 1.0 - r
        if not (1.0 - miss) + 1e-12 >= required:
            return False
    return True


def unsatisfied_variables(
    sensors: Sequence[SensorInfo], requirements: Dict[str, float]
) -> List[str]:
    return [
        variable
        for variable, required in requirements.items()
        if combined_reliability(sensors, variable) + _EPSILON < required
    ]


class _BitmaskSearch:
    """Single-pass DFS over *infeasible* sensor-index prefixes.

    Bit ``i`` of a subset mask stands for ``ids[i]`` (ids sorted).
    Feasibility is monotone, so the DFS descends only while the current
    prefix is infeasible; the moment adding sensor ``j`` makes it feasible
    the set is recorded as a candidate and the subtree is abandoned (every
    extension would be a non-minimal superset). Every minimal feasible set
    is such a candidate — remove its highest sensor and the rest is
    infeasible by minimality — and candidates never contain each other's
    prefixes mid-walk, so no containment checks run inside the hot loop.

    Per-variable miss products are maintained incrementally in
    ascending-id order (one multiply per tree edge), matching the
    reference implementation's float association bit for bit. Precomputed
    per-variable log-miss contributions give a sound subtree bound: if an
    unsatisfied variable cannot reach its requirement even using every
    remaining sensor, the subtree is pruned.

    :meth:`results` then sorts candidates into the reference's
    (size, lexicographic) order and keeps only the minimal ones via
    bitmask-containment checks over a size-bucketed index of the kept
    sets, applying the ``max_sets`` cap at the same points the reference
    would.
    """

    __slots__ = (
        "n", "contrib", "required", "nv", "suffix_log", "log_threshold",
        "miss", "logmiss", "sat", "unsat", "candidates", "max_size",
    )

    def __init__(
        self,
        contrib: List[List[Tuple[int, float, float]]],
        required: List[float],
        max_size: int,
    ):
        self.n = len(contrib)
        self.contrib = contrib
        self.required = required
        self.nv = len(required)
        self.max_size = max_size
        # suffix_log[j][v]: total log-miss variable v could still gain from
        # sensors j..n-1 — the precomputed per-variable contributions that
        # power the infeasible-subtree bound.
        suffix = [[0.0] * self.nv for _ in range(self.n + 1)]
        for j in range(self.n - 1, -1, -1):
            row = list(suffix[j + 1])
            for vi, _one_minus_r, log_miss in contrib[j]:
                row[vi] += log_miss
            suffix[j] = row
        self.suffix_log = suffix
        # Variable v is satisfied when miss <= 1 - required + eps; in the
        # log domain, log-miss <= log(1 - required + eps). The margin keeps
        # the bound conservative under float rounding, so it can never
        # prune a subset the exact product-domain check would accept.
        self.log_threshold = []
        for req in required:
            headroom = 1.0 - req + _EPSILON
            self.log_threshold.append(
                math.log(headroom) + _LOG_MARGIN if headroom > 0.0
                else -math.inf
            )
        self.miss = [1.0] * self.nv
        self.logmiss = [0.0] * self.nv
        # Same arithmetic as the reference's empty-group check:
        # combined_reliability([]) == 0.0, compared with the epsilon slack.
        self.sat = [0.0 + _EPSILON >= req for req in required]
        self.unsat = self.sat.count(False)
        self.candidates: List[Tuple[Tuple[int, ...], int]] = []

    def run(self) -> None:
        if self.unsat == 0:
            # Every singleton is trivially feasible (the reference finds
            # all of them in its size-1 round); larger sets are supersets.
            if self.max_size >= 1:
                for j in range(self.n):
                    self.candidates.append(((j,), 1 << j))
            return
        self._dfs(0, 0, 0, ())
        self.candidates.sort(key=lambda c: (len(c[0]), c[0]))

    def _dfs(self, j_start: int, depth: int, mask: int, path: Tuple[int, ...]) -> None:
        n = self.n
        miss = self.miss
        logmiss = self.logmiss
        sat = self.sat
        required = self.required
        contrib = self.contrib
        can_descend = depth + 1 < self.max_size
        for j in range(j_start, n):
            # Apply sensor j's per-variable contributions incrementally.
            entries = contrib[j]
            undo_miss: List[float] = []
            undo_log: List[float] = []
            newly_sat: List[int] = []
            for vi, one_minus_r, log_miss in entries:
                old_miss = miss[vi]
                undo_miss.append(old_miss)
                undo_log.append(logmiss[vi])
                new_miss = old_miss * one_minus_r
                miss[vi] = new_miss
                logmiss[vi] += log_miss
                if not sat[vi] and (1.0 - new_miss) + _EPSILON >= required[vi]:
                    sat[vi] = True
                    newly_sat.append(vi)
            if len(newly_sat) == self.unsat:
                # Prefix + j is feasible and prefix alone was not: candidate.
                self.candidates.append((path + (j,), mask | (1 << j)))
            elif can_descend:
                # Still infeasible: descend unless some unsatisfied variable
                # cannot reach its requirement even with every remaining
                # sensor (the precomputed log-miss bound).
                hopeless = False
                suffix_row = self.suffix_log[j + 1]
                threshold = self.log_threshold
                for vi in range(self.nv):
                    if not sat[vi] and logmiss[vi] + suffix_row[vi] > threshold[vi]:
                        hopeless = True
                        break
                if not hopeless:
                    saved_unsat = self.unsat
                    self.unsat -= len(newly_sat)
                    self._dfs(j + 1, depth + 1, mask | (1 << j), path + (j,))
                    self.unsat = saved_unsat
            # Backtrack.
            for vi in newly_sat:
                sat[vi] = False
            k = 0
            for vi, _one_minus_r, _log_miss in entries:
                miss[vi] = undo_miss[k]
                logmiss[vi] = undo_log[k]
                k += 1

    def results(self, ids: List[str], max_sets: int) -> List[SensorSet]:
        """Minimal candidates in (size, lex) order, capped like the reference."""
        out: List[SensorSet] = []
        # Size-bucketed index of kept masks: a candidate of size s can only
        # contain kept sets from strictly smaller buckets.
        by_size: Dict[int, List[int]] = {}
        for path, cand in self.candidates:
            size = len(path)
            inverse = ~cand
            dominated = False
            for kept_size, bucket in by_size.items():
                if kept_size >= size:
                    continue
                for kept in bucket:
                    if kept & inverse == 0:  # kept is a subset of cand
                        dominated = True
                        break
                if dominated:
                    break
            if dominated:
                continue
            by_size.setdefault(size, []).append(cand)
            out.append(frozenset(ids[j] for j in path))
            if len(out) >= max_sets:
                break
        return out


def minimal_feasible_sets(
    sensors: Sequence[SensorInfo],
    requirements: Dict[str, float],
    max_size: Optional[int] = None,
    max_sets: int = 256,
) -> List[SensorSet]:
    """Every minimal feasible set (ids) of at most ``max_size`` members,
    in (size, sorted ids) order, the first ``max_sets`` of them.

    Only sensors measuring at least one required variable are considered;
    an empty list means even the full set is infeasible. The cap bounds
    worst-case work (documented ablation in bench E10). The result (sets,
    order, cap behaviour) is identical to
    :func:`repro.core.feasibility_reference.minimal_feasible_sets_reference`;
    the search is described in the module docstring.
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
    if limit <= 0:
        return []

    variables = list(requirements)
    var_index = {v: i for i, v in enumerate(variables)}
    required = [requirements[v] for v in variables]
    # contrib[j]: sensor ids[j]'s (variable index, 1 - r, log(1 - r))
    # entries for the variables it measures. log(0) would be needed for
    # r == 1.0; -inf is the correct value there (miss product hits 0).
    contrib: List[List[Tuple[int, float, float]]] = []
    for sensor_id in ids:
        sensor = by_id[sensor_id]
        entries: List[Tuple[int, float, float]] = []
        for variable, vi in var_index.items():
            r = sensor.reliability_for(variable)
            if r > 0.0:
                one_minus_r = 1.0 - r
                log_miss = (
                    math.log(one_minus_r) if one_minus_r > 0.0 else -math.inf
                )
                entries.append((vi, one_minus_r, log_miss))
        contrib.append(entries)

    search = _BitmaskSearch(contrib, required, limit)
    search.run()
    return search.results(ids, max_sets)


def greedy_feasible_set(
    sensors: Sequence[SensorInfo],
    requirements: Dict[str, float],
) -> Optional[SensorSet]:
    """Polynomial-time feasible set: repeatedly add the sensor with the
    largest reliability contribution to the currently worst-satisfied
    variable. Not necessarily minimal; None when infeasible."""
    available = {
        s.sensor_id: s
        for s in sensors
        if not s.depleted and any(s.measures(v) for v in requirements)
    }
    if not requirements:
        return frozenset()
    chosen: Dict[str, SensorInfo] = {}
    while True:
        group = list(chosen.values())
        missing = unsatisfied_variables(group, requirements)
        if not missing:
            return frozenset(chosen)
        # Deficit-weighted: target the variable farthest from its goal.
        target = max(
            missing,
            key=lambda v: (requirements[v] - combined_reliability(group, v), v),
        )
        candidates = [
            s for sid, s in available.items()
            if sid not in chosen and s.measures(target)
        ]
        if not candidates:
            return None
        best = max(
            candidates, key=lambda s: (s.reliability_for(target), s.sensor_id)
        )
        chosen[best.sensor_id] = best
